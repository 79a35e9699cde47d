module G = Mcgraph.Graph
module Mst = Mcgraph.Mst

let test_kruskal_known () =
  (* square with a costly diagonal *)
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] in
  let w = [| 1.0; 2.0; 3.0; 4.0; 10.0 |] in
  let tree = Mst.kruskal g ~weight:(Tutil.weight_fn w) in
  Alcotest.(check int) "spanning size" 3 (List.length tree);
  Alcotest.check Tutil.check_float "weight" 6.0
    (Mcgraph.Steiner.tree_cost ~weight:(Tutil.weight_fn w) tree);
  Alcotest.(check bool) "is a tree" true (Tutil.is_tree g tree)

let test_prim_known () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] in
  let w = [| 1.0; 2.0; 3.0; 4.0; 10.0 |] in
  let tree = Oracle.Prim.prim g ~weight:(Tutil.weight_fn w) ~root:2 in
  Alcotest.check Tutil.check_float "weight" 6.0
    (Mcgraph.Steiner.tree_cost ~weight:(Tutil.weight_fn w) tree)

let test_forest_on_disconnected () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let tree = Mst.kruskal g ~weight:(fun _ -> 1.0) in
  Alcotest.(check int) "forest" 2 (List.length tree)

let test_prim_component_only () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let tree = Oracle.Prim.prim g ~weight:(fun _ -> 1.0) ~root:0 in
  Alcotest.(check (list int)) "only local component" [ 0 ] tree

let test_kruskal_subset () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let w = [| 1.0; 1.0; 1.0 |] in
  let tree =
    Mst.kruskal_subset g ~weight:(Tutil.weight_fn w) ~edges:[ 0; 2 ]
  in
  Alcotest.(check (list int)) "restricted choice" [ 0; 2 ] (List.sort compare tree)

let test_kruskal_ignores_infinite () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let w e = if e = 1 then infinity else 1.0 in
  let tree = Mst.kruskal g ~weight:w in
  Alcotest.(check bool) "edge 1 skipped" true (not (List.mem 1 tree));
  Alcotest.(check int) "spans what it can" 2 (List.length tree)

let test_prim_metric_line () =
  let points = [| 10; 20; 30 |] in
  let dist a b = Float.abs (float_of_int (a - b)) in
  match Mst.prim_metric ~points ~dist with
  | None -> Alcotest.fail "should connect"
  | Some edges ->
    Alcotest.(check int) "two edges" 2 (List.length edges);
    let total =
      List.fold_left (fun acc (a, b) -> acc +. dist a b) 0.0 edges
    in
    Alcotest.check Tutil.check_float "chain weight" 20.0 total

let test_prim_metric_disconnected () =
  let points = [| 0; 1 |] in
  let dist _ _ = infinity in
  Alcotest.(check bool) "none" true (Mst.prim_metric ~points ~dist = None)

let test_prim_metric_trivial () =
  Alcotest.(check (option (list (pair int int)))) "empty" (Some [])
    (Mst.prim_metric ~points:[||] ~dist:(fun _ _ -> 0.0));
  Alcotest.(check (option (list (pair int int)))) "singleton" (Some [])
    (Mst.prim_metric ~points:[| 7 |] ~dist:(fun _ _ -> 0.0))

(* ---- properties ---- *)

let with_instance seed f =
  let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:40 in
  let w = Tutil.random_weights rng g in
  f g (Tutil.weight_fn w) rng

let prop_prim_equals_kruskal =
  Tutil.qtest ~count:150 "prim weight = kruskal weight"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g weight _ ->
          let k = Mst.kruskal g ~weight in
          let p = Oracle.Prim.prim g ~weight ~root:0 in
          Float.abs (Mcgraph.Steiner.tree_cost ~weight k -. Mcgraph.Steiner.tree_cost ~weight p) < 1e-6))

let prop_spanning_tree =
  Tutil.qtest ~count:150 "kruskal result is a spanning tree"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g weight _ ->
          let k = Mst.kruskal g ~weight in
          List.length k = G.n g - 1 && Tutil.is_tree g k))

(* cut property spot check: the globally lightest edge is always in some MST;
   with distinct weights it is in every MST *)
let prop_lightest_edge =
  Tutil.qtest ~count:100 "lightest (unique) edge belongs to the MST"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g _ rng ->
          (* re-draw strictly distinct weights *)
          let m = G.m g in
          let w =
            Array.init m (fun i ->
                (float_of_int i /. float_of_int m *. 0.001)
                +. Topology.Rng.float_range rng 1.0 2.0)
          in
          let lightest = ref 0 in
          Array.iteri (fun e x -> if x < w.(!lightest) then lightest := e) w;
          let k = Mst.kruskal g ~weight:(Tutil.weight_fn w) in
          List.mem !lightest k))

let prop_prim_metric_matches_kruskal_on_complete =
  Tutil.qtest ~count:80 "prim_metric = kruskal on materialised complete graph"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Topology.Rng.create seed in
      let t = 2 + Topology.Rng.int rng 12 in
      let coords =
        Array.init t (fun _ ->
            (Topology.Rng.float rng 10.0, Topology.Rng.float rng 10.0))
      in
      let dist a b =
        let xa, ya = coords.(a) and xb, yb = coords.(b) in
        sqrt (((xa -. xb) ** 2.0) +. ((ya -. yb) ** 2.0))
      in
      let points = Array.init t Fun.id in
      match Mst.prim_metric ~points ~dist with
      | None -> false
      | Some edges ->
        let total = List.fold_left (fun acc (a, b) -> acc +. dist a b) 0.0 edges in
        (* materialise the complete graph and run kruskal *)
        let g = G.create t in
        let w = ref [] in
        for i = 0 to t - 1 do
          for j = i + 1 to t - 1 do
            ignore (G.add_edge g i j);
            w := dist i j :: !w
          done
        done;
        let warr = Array.of_list (List.rev !w) in
        let k = Mst.kruskal g ~weight:(Tutil.weight_fn warr) in
        let ktotal = Mcgraph.Steiner.tree_cost ~weight:(Tutil.weight_fn warr) k in
        Float.abs (total -. ktotal) < 1e-6)

(* the array kernel picks exactly the edges, in exactly the order, of
   the List.sort + union-find Kruskal it replaced: a random edge subset
   in random order, repeats and pruned edges included, under tied
   weights (where the sort's stability decides the tree) *)
let prop_kruskal_subset_matches_reference =
  Tutil.qtest ~count:300 "kruskal_subset = reference (stable ties)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:40 in
      let weight = Tutil.weight_fn (Tutil.tied_weights rng g) in
      let edges =
        List.init (Topology.Rng.int rng (2 * G.m g)) (fun _ ->
            Topology.Rng.int rng (G.m g))
      in
      Mst.kruskal_subset g ~weight ~edges
      = Oracle.Ref_kmb.kruskal_edges g ~weight edges
      && Mst.kruskal g ~weight
         = Oracle.Ref_kmb.kruskal_edges g ~weight (List.init (G.m g) Fun.id))

(* the same, on graphs of alternating sizes in one run *)
let prop_kruskal_subset_back_to_back =
  Tutil.qtest ~count:100 "kruskal_subset = reference across graph sizes"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun (lo, hi) ->
          let g, rng = Tutil.random_connected_graph seed ~lo ~hi in
          let weight = Tutil.weight_fn (Tutil.tied_weights rng g) in
          let edges =
            List.init (Topology.Rng.int rng (2 * G.m g)) (fun _ ->
                Topology.Rng.int rng (G.m g))
          in
          Mst.kruskal_subset g ~weight ~edges
          = Oracle.Ref_kmb.kruskal_edges g ~weight edges)
        Tutil.size_ladder)

(* the row kernel against the per-pair Prim it replaced, on asymmetric
   metrics with heavy ties and some infinite pairs: the same edges (or
   the same [None]) and the same (source, target) queries in the same
   order *)
let prop_prim_rows_matches_reference =
  Tutil.qtest ~count:300 "prim_rows = per-pair reference, same queries"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Topology.Rng.create seed in
      let t = Topology.Rng.int rng 15 in
      let points = Array.init t (fun i -> (3 * i) + Topology.Rng.int rng 3) in
      let span = (3 * t) + 3 in
      let table =
        Array.init (span * span) (fun _ ->
            match Topology.Rng.int rng 10 with
            | 0 -> if Topology.Rng.int rng 3 = 0 then infinity else 0.0
            | 1 | 2 -> 1.0 +. 1e-6
            | _ -> float_of_int (1 + Topology.Rng.int rng 3))
      in
      let dist a b = table.((a * span) + b) in
      let log_ref = ref [] and log_rows = ref [] in
      let expected =
        Oracle.Ref_kmb.prim_metric ~points ~dist:(fun a b ->
            log_ref := (a, b) :: !log_ref;
            dist a b)
      in
      let got =
        Mst.prim_rows ~points ~row:(fun src dst n out ->
            for i = 0 to n - 1 do
              log_rows := (src, dst.(i)) :: !log_rows;
              out.(i) <- dist src dst.(i)
            done)
      in
      got = expected
      && !log_rows = !log_ref
      && Mst.prim_metric ~points ~dist = expected)

let () =
  Alcotest.run "mst"
    [
      ( "unit",
        [
          Alcotest.test_case "kruskal known" `Quick test_kruskal_known;
          Alcotest.test_case "prim known" `Quick test_prim_known;
          Alcotest.test_case "forest" `Quick test_forest_on_disconnected;
          Alcotest.test_case "prim stays in component" `Quick test_prim_component_only;
          Alcotest.test_case "kruskal_subset" `Quick test_kruskal_subset;
          Alcotest.test_case "infinite weight skipped" `Quick
            test_kruskal_ignores_infinite;
          Alcotest.test_case "prim_metric line" `Quick test_prim_metric_line;
          Alcotest.test_case "prim_metric disconnected" `Quick
            test_prim_metric_disconnected;
          Alcotest.test_case "prim_metric trivial" `Quick test_prim_metric_trivial;
        ] );
      ( "property",
        [
          prop_prim_equals_kruskal;
          prop_spanning_tree;
          prop_lightest_edge;
          prop_prim_metric_matches_kruskal_on_complete;
          prop_kruskal_subset_matches_reference;
          prop_kruskal_subset_back_to_back;
          prop_prim_rows_matches_reference;
        ] );
    ]
