module Topo = Topology.Topo
module Rng = Topology.Rng

let test_waxman_basic () =
  let rng = Rng.create 1 in
  let t = Topology.Waxman.generate rng ~n:60 in
  Alcotest.(check int) "n" 60 (Topo.n t);
  Alcotest.(check bool) "connected" true (Topo.is_connected t);
  Alcotest.(check bool) "has coords" true (t.Topo.coords <> None)

let test_waxman_deterministic () =
  let t1 = Topology.Waxman.generate (Rng.create 5) ~n:40 in
  let t2 = Topology.Waxman.generate (Rng.create 5) ~n:40 in
  Alcotest.(check int) "same m" (Topo.m t1) (Topo.m t2);
  Alcotest.(check bool) "same edges" true
    (Mcgraph.Graph.edge_list t1.Topo.graph = Mcgraph.Graph.edge_list t2.Topo.graph)

let test_waxman_too_small () =
  Alcotest.check_raises "n=1" (Invalid_argument "Waxman.generate: need at least 2 nodes")
    (fun () -> ignore (Topology.Waxman.generate (Rng.create 1) ~n:1))

let test_waxman_density_scales_with_alpha () =
  let sparse = Topology.Waxman.generate ~alpha:0.05 (Rng.create 3) ~n:80 in
  let dense = Topology.Waxman.generate ~alpha:0.9 (Rng.create 3) ~n:80 in
  Alcotest.(check bool) "alpha raises density" true (Topo.m dense > Topo.m sparse)

let test_erdos_renyi () =
  let t = Oracle.Random_graph.erdos_renyi (Rng.create 2) ~n:50 ~p:0.08 in
  Alcotest.(check bool) "connected" true (Topo.is_connected t);
  Alcotest.(check int) "n" 50 (Topo.n t)

let test_random_tree () =
  let t = Oracle.Random_graph.random_tree (Rng.create 4) ~n:30 in
  Alcotest.(check int) "tree edges" 29 (Topo.m t);
  Alcotest.(check bool) "connected" true (Topo.is_connected t)

let test_gnm () =
  let t = Oracle.Random_graph.gnm (Rng.create 4) ~n:30 ~m:60 in
  Alcotest.(check int) "edge count" 60 (Topo.m t);
  Alcotest.(check bool) "connected" true (Topo.is_connected t)

let test_fat_tree () =
  let t = Topology.Fat_tree.generate ~k:4 () in
  Alcotest.(check int) "k=4 nodes" 20 (Topo.n t);
  Alcotest.(check int) "k=4 links" 32 (Topo.m t);
  Alcotest.(check bool) "connected" true (Topo.is_connected t);
  let cores = Topology.Fat_tree.core_switches ~k:4 in
  let edges = Topology.Fat_tree.edge_switches ~k:4 in
  Alcotest.(check int) "cores" 4 (List.length cores);
  Alcotest.(check int) "edge switches" 8 (List.length edges);
  (* every core has degree k *)
  List.iter
    (fun c -> Alcotest.(check int) "core degree" 4 (Mcgraph.Graph.degree t.Topo.graph c))
    cores

let test_fat_tree_odd_rejected () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Fat_tree: arity must be even and >= 2") (fun () ->
      ignore (Topology.Fat_tree.generate ~k:3 ()))

let test_geant () =
  let t = Topology.Geant.topology () in
  Alcotest.(check int) "40 PoPs" 40 (Topo.n t);
  Alcotest.(check bool) "connected" true (Topo.is_connected t);
  Alcotest.(check int) "nine servers" 9 (List.length Topology.Geant.default_servers);
  Alcotest.(check string) "named nodes" "Amsterdam" (Topo.node_name t 0);
  List.iter
    (fun v ->
      if v < 0 || v >= 40 then Alcotest.fail "server id out of range")
    Topology.Geant.default_servers

let test_geant_fresh_copies () =
  let t1 = Topology.Geant.topology () and t2 = Topology.Geant.topology () in
  ignore (Mcgraph.Graph.add_edge t1.Topo.graph 0 5);
  Alcotest.(check bool) "independent" true (Topo.m t1 = Topo.m t2 + 1)

let test_rocketfuel_sizes () =
  let a = Topology.Rocketfuel.as1755 () in
  Alcotest.(check int) "as1755 nodes" 87 (Topo.n a);
  Alcotest.(check int) "as1755 links" 161 (Topo.m a);
  Alcotest.(check bool) "connected" true (Topo.is_connected a);
  let b = Topology.Rocketfuel.as4755 () in
  Alcotest.(check int) "as4755 nodes" 41 (Topo.n b);
  Alcotest.(check int) "as4755 links" 68 (Topo.m b);
  Alcotest.(check bool) "connected" true (Topo.is_connected b)

let test_rocketfuel_deterministic () =
  let a = Topology.Rocketfuel.as1755 () and b = Topology.Rocketfuel.as1755 () in
  Alcotest.(check bool) "same graph" true
    (Mcgraph.Graph.edge_list a.Topo.graph = Mcgraph.Graph.edge_list b.Topo.graph)

let test_rocketfuel_heavy_tail () =
  let t = Topology.Rocketfuel.as1755 () in
  let g = t.Topo.graph in
  let max_deg = ref 0 in
  for v = 0 to Topo.n t - 1 do
    max_deg := max !max_deg (Mcgraph.Graph.degree g v)
  done;
  (* preferential attachment must create hubs well above the mean degree *)
  let mean = 2.0 *. float_of_int (Topo.m t) /. float_of_int (Topo.n t) in
  Alcotest.(check bool) "has hubs" true (float_of_int !max_deg > 2.5 *. mean)

let test_transit_stub () =
  let t = Topology.Transit_stub.generate (Rng.create 6) in
  Alcotest.(check bool) "connected" true (Topo.is_connected t);
  let p = Topology.Transit_stub.default_params in
  let expect =
    p.Topology.Transit_stub.transit_domains * p.transit_size
    * (1 + (p.stubs_per_transit_node * p.stub_size))
  in
  Alcotest.(check int) "size formula" expect (Topo.n t)

let test_transit_stub_sized () =
  List.iter
    (fun n ->
      let t = Topology.Transit_stub.generate_sized (Rng.create 8) ~n in
      Alcotest.(check int) "hits target" n (Topo.n t);
      Alcotest.(check bool) "connected" true (Topo.is_connected t))
    [ 50; 100; 173; 250 ]

let test_connect_components () =
  let g = Mcgraph.Graph.of_edges ~n:6 [ (0, 1); (2, 3); (4, 5) ] in
  let t = Topo.make ~name:"frag" g in
  let t = Topo.connect_components (Rng.create 9) t in
  Alcotest.(check bool) "joined" true (Topo.is_connected t)

let test_is_connected () =
  let topo g = Topo.make ~name:"t" g in
  let path n = Mcgraph.Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  Alcotest.(check bool) "path" true (Topo.is_connected (topo (path 5)));
  Alcotest.(check bool) "disconnected" false
    (Topo.is_connected (topo (Mcgraph.Graph.of_edges ~n:3 [ (0, 1) ])));
  Alcotest.(check bool) "singleton" true
    (Topo.is_connected (topo (Mcgraph.Graph.create 1)));
  Alcotest.(check bool) "empty" true
    (Topo.is_connected (topo (Mcgraph.Graph.create 0)))

let test_topo_validation () =
  let g = Mcgraph.Graph.create 3 in
  Alcotest.check_raises "coords mismatch"
    (Invalid_argument "Topo.make: coords size mismatch") (fun () ->
      ignore (Topo.make ~coords:[| (0.0, 0.0) |] ~name:"bad" g))

(* properties *)

(* Components counted by unit-weight Dijkstra reachability: the
   reference [Topo.is_connected] and [Topo.connect_components] are
   checked against. *)
let reference_components g =
  let n = Mcgraph.Graph.n g in
  let seen = Array.make n false and count = ref 0 in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      incr count;
      let spt = Oracle.Ref_paths.dijkstra g ~weight:(fun _ -> 1.0) ~source:v in
      Array.iteri (fun u d -> if d < infinity then seen.(u) <- true) spt.Mcgraph.Paths.dist
    end
  done;
  !count

(* A G(n, m) or G(n, p) draw with each edge kept at random, so both
   connected and fragmented graphs come up. *)
let thinned_draw seed =
  let rng = Rng.create seed in
  let n = 1 + Rng.int rng 30 in
  let t =
    if seed mod 2 = 0 then Oracle.Random_graph.gnm rng ~n ~m:(Rng.int rng (2 * n))
    else Oracle.Random_graph.erdos_renyi rng ~n ~p:(Rng.float rng 0.3)
  in
  let kept =
    List.filter_map
      (fun (_, u, v) -> if Rng.int rng 3 > 0 then Some (u, v) else None)
      (Mcgraph.Graph.edge_list t.Topo.graph)
  in
  (rng, Topo.make ~name:"thinned" (Mcgraph.Graph.of_edges ~n kept))

let prop_union_find_components =
  Tutil.qtest ~count:200 "is_connected and connect_components = dijkstra reachability"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng, t = thinned_draw seed in
      let g = t.Topo.graph in
      let m0 = Topo.m t and c0 = reference_components g in
      let edges0 = Mcgraph.Graph.edge_list g in
      let connected = Topo.is_connected t in
      let joined = Topo.connect_components rng t in
      let g' = joined.Topo.graph in
      connected = (c0 <= 1)
      && reference_components g' <= 1
      && Topo.is_connected joined
      && Topo.m joined = m0 + max 0 (c0 - 1)
      && List.filteri (fun i _ -> i < m0) (Mcgraph.Graph.edge_list g') = edges0)

let prop_waxman_connected =
  Tutil.qtest ~count:40 "waxman always connected"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let t =
        Topology.Waxman.generate (Rng.create seed) ~n:(10 + (seed mod 90))
      in
      Topo.is_connected t)

let prop_transit_stub_connected =
  Tutil.qtest ~count:40 "transit-stub always connected"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let n = 20 + (seed mod 200) in
      Topo.is_connected (Topology.Transit_stub.generate_sized (Rng.create seed) ~n))

let () =
  Alcotest.run "topology"
    [
      ( "waxman",
        [
          Alcotest.test_case "basic" `Quick test_waxman_basic;
          Alcotest.test_case "deterministic" `Quick test_waxman_deterministic;
          Alcotest.test_case "too small" `Quick test_waxman_too_small;
          Alcotest.test_case "alpha density" `Quick test_waxman_density_scales_with_alpha;
        ] );
      ( "random",
        [
          Alcotest.test_case "erdos-renyi" `Quick test_erdos_renyi;
          Alcotest.test_case "random tree" `Quick test_random_tree;
          Alcotest.test_case "gnm" `Quick test_gnm;
        ] );
      ( "fat-tree",
        [
          Alcotest.test_case "k=4 structure" `Quick test_fat_tree;
          Alcotest.test_case "odd k rejected" `Quick test_fat_tree_odd_rejected;
        ] );
      ( "real",
        [
          Alcotest.test_case "geant" `Quick test_geant;
          Alcotest.test_case "geant copies" `Quick test_geant_fresh_copies;
          Alcotest.test_case "rocketfuel sizes" `Quick test_rocketfuel_sizes;
          Alcotest.test_case "rocketfuel deterministic" `Quick
            test_rocketfuel_deterministic;
          Alcotest.test_case "rocketfuel heavy tail" `Quick test_rocketfuel_heavy_tail;
        ] );
      ( "transit-stub",
        [
          Alcotest.test_case "default params" `Quick test_transit_stub;
          Alcotest.test_case "sized" `Quick test_transit_stub_sized;
        ] );
      ( "topo",
        [
          Alcotest.test_case "connect components" `Quick test_connect_components;
          Alcotest.test_case "is_connected" `Quick test_is_connected;
          Alcotest.test_case "validation" `Quick test_topo_validation;
        ] );
      ( "property",
        [
          prop_waxman_connected;
          prop_transit_stub_connected;
          prop_union_find_components;
        ] );
    ]
