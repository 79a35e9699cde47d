module G = Mcgraph.Graph
module S = Mcgraph.Steiner

let unit_weight _ = 1.0

let test_trivial_terminals () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check (option (list int))) "no terminals" (Some [])
    (S.kmb g ~weight:unit_weight ~terminals:[]);
  Alcotest.(check (option (list int))) "single" (Some [])
    (S.kmb g ~weight:unit_weight ~terminals:[ 2 ]);
  Alcotest.(check (option (list int))) "duplicates collapse" (Some [])
    (S.kmb g ~weight:unit_weight ~terminals:[ 2; 2 ])

let test_pair_is_shortest_path () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let w = [| 1.0; 1.0; 1.0; 10.0 |] in
  match S.kmb g ~weight:(Tutil.weight_fn w) ~terminals:[ 0; 3 ] with
  | None -> Alcotest.fail "reachable"
  | Some tree ->
    Alcotest.check Tutil.check_float "cost" 3.0
      (S.tree_cost ~weight:(Tutil.weight_fn w) tree)

let test_star_uses_steiner_node () =
  (* terminals 1,2,3 all adjacent to hub 0; optimal tree = star of cost 3 *)
  let g = G.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3); (1, 3) ] in
  let w = [| 1.0; 1.0; 1.0; 1.9; 1.9; 1.9 |] in
  match S.kmb g ~weight:(Tutil.weight_fn w) ~terminals:[ 1; 2; 3 ] with
  | None -> Alcotest.fail "reachable"
  | Some tree ->
    let c = S.tree_cost ~weight:(Tutil.weight_fn w) tree in
    (* KMB may pick the 2-path closure tree (3.8) or the star (3.0); both
       within the 2(1-1/3) ≈ 1.33 bound of OPT = 3.0 *)
    Alcotest.(check bool) "within KMB bound" true (c <= 4.0 +. 1e-9);
    Alcotest.(check bool) "valid" true
      (S.is_steiner_tree g ~terminals:[ 1; 2; 3 ] tree)

let test_unreachable () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check (option (list int))) "none" None
    (S.kmb g ~weight:unit_weight ~terminals:[ 0; 3 ])

let test_prune () =
  (* path 0-1-2-3 plus dangling 2-4; terminals {0, 3} *)
  let g = G.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (2, 4) ] in
  let pruned = S.prune g ~terminals:[ 0; 3 ] [ 0; 1; 2; 3 ] in
  Alcotest.(check (list int)) "dangling removed" [ 0; 1; 2 ]
    (List.sort compare pruned)

let test_prune_cascades () =
  (* chain 0-1-2-3 with terminal only at 0: everything prunes away *)
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (list int)) "all gone" []
    (S.prune g ~terminals:[ 0 ] [ 0; 1; 2 ])

let test_exact_known () =
  (* C4 with unit weights, terminals {0, 2}: exact cost 2 *)
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  match Oracle.Steiner_exact.exact g ~weight:unit_weight ~terminals:[ 0; 2 ] with
  | None -> Alcotest.fail "reachable"
  | Some tree ->
    Alcotest.check Tutil.check_float "cost 2" 2.0 (S.tree_cost ~weight:unit_weight tree)

let test_exact_steiner_node () =
  (* the star graph again: exact must find cost 3 via the hub *)
  let g = G.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3); (1, 3) ] in
  let w = [| 1.0; 1.0; 1.0; 1.9; 1.9; 1.9 |] in
  match Oracle.Steiner_exact.exact g ~weight:(Tutil.weight_fn w) ~terminals:[ 1; 2; 3 ] with
  | None -> Alcotest.fail "reachable"
  | Some tree ->
    Alcotest.check Tutil.check_float "uses hub" 3.0
      (S.tree_cost ~weight:(Tutil.weight_fn w) tree)

let test_exact_too_many_terminals () =
  let g = G.of_edges ~n:20 (List.init 19 (fun i -> (i, i + 1))) in
  Alcotest.check_raises "guard" (Invalid_argument "Steiner.exact: too many terminals")
    (fun () ->
      ignore (Oracle.Steiner_exact.exact g ~weight:unit_weight ~terminals:(List.init 16 Fun.id)))

let test_is_steiner_tree () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "valid" true (S.is_steiner_tree g ~terminals:[ 0; 2 ] [ 0; 1 ]);
  Alcotest.(check bool) "missing terminal" false
    (S.is_steiner_tree g ~terminals:[ 0; 3 ] [ 0; 1 ]);
  Alcotest.(check bool) "not connected to terminal" false
    (S.is_steiner_tree g ~terminals:[ 0; 2 ] [ 2 ])

(* ---- properties ---- *)

let with_instance seed f =
  let g, rng = Tutil.random_connected_graph seed ~lo:3 ~hi:18 in
  let w = Tutil.random_weights rng g in
  let n = G.n g in
  let t = 2 + Topology.Rng.int rng (min 5 (n - 1)) in
  let terminals = Topology.Rng.sample_without_replacement rng t n in
  f g (Tutil.weight_fn w) terminals rng

let prop_kmb_valid =
  Tutil.qtest ~count:200 "kmb returns a steiner tree"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g weight terminals _ ->
          match S.kmb g ~weight ~terminals with
          | None -> false
          | Some tree -> S.is_steiner_tree g ~terminals tree))

let prop_exact_valid =
  Tutil.qtest ~count:120 "exact returns a steiner tree"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g weight terminals _ ->
          match Oracle.Steiner_exact.exact g ~weight ~terminals with
          | None -> false
          | Some tree -> S.is_steiner_tree g ~terminals tree))

let prop_kmb_ratio =
  Tutil.qtest ~count:120 "kmb within 2(1-1/t) of exact"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g weight terminals _ ->
          match (S.kmb g ~weight ~terminals, Oracle.Steiner_exact.exact g ~weight ~terminals) with
          | Some approx, Some opt ->
            let ca = S.tree_cost ~weight approx
            and co = S.tree_cost ~weight opt in
            let t = float_of_int (List.length (List.sort_uniq compare terminals)) in
            ca <= (2.0 *. (1.0 -. (1.0 /. t)) *. co) +. 1e-6
          | _ -> false))

let prop_exact_lower_bounds_kmb =
  Tutil.qtest ~count:120 "exact <= kmb"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_instance seed (fun g weight terminals _ ->
          match (S.kmb g ~weight ~terminals, Oracle.Steiner_exact.exact g ~weight ~terminals) with
          | Some approx, Some opt ->
            S.tree_cost ~weight opt <= S.tree_cost ~weight approx +. 1e-6
          | _ -> false))

(* with exactly two terminals both must equal the shortest path *)
let prop_two_terminals =
  Tutil.qtest ~count:120 "two terminals = shortest path"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:20 in
      let w = Tutil.random_weights rng g in
      let weight = Tutil.weight_fn w in
      let n = G.n g in
      let a = Topology.Rng.int rng n in
      let b = (a + 1 + Topology.Rng.int rng (n - 1)) mod n in
      if a = b then true
      else begin
        let spt = Oracle.Ref_paths.dijkstra g ~weight ~source:a in
        let expected = spt.Mcgraph.Paths.dist.(b) in
        match (S.kmb g ~weight ~terminals:[ a; b ], Oracle.Steiner_exact.exact g ~weight ~terminals:[ a; b ]) with
        | Some t1, Some t2 ->
          Float.abs (S.tree_cost ~weight t1 -. expected) < 1e-6
          && Float.abs (S.tree_cost ~weight t2 -. expected) < 1e-6
        | _ -> false
      end)

(* ---- bit-identity with the Hashtbl-based kernels they replaced ---- *)

(* a random spanning forest under tied weights, its edges shuffled, with
   a random terminal set: the shape [prune] sees after KMB's second MST *)
let forest_instance seed =
  let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:40 in
  let w = Tutil.tied_weights rng g in
  let forest = Mcgraph.Mst.kruskal g ~weight:(Tutil.weight_fn w) in
  let arr = Array.of_list forest in
  Topology.Rng.shuffle rng arr;
  let terminals =
    List.filter (fun _ -> Topology.Rng.int rng 4 = 0) (List.init (G.n g) Fun.id)
  in
  (g, rng, w, Array.to_list arr, terminals)

let prop_prune_matches_reference =
  Tutil.qtest ~count:300 "prune = Hashtbl reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, _, _, forest, terminals = forest_instance seed in
      S.prune g ~terminals forest = Oracle.Ref_kmb.prune g ~terminals forest)

let prop_dedup_matches_reference =
  Tutil.qtest ~count:300 "dedup_edges = Hashtbl reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:30 in
      let edges =
        List.init (Topology.Rng.int rng 60) (fun _ -> Topology.Rng.int rng (G.m g))
      in
      S.dedup_edges g edges = Oracle.Ref_kmb.dedup_edges edges)

(* the same, on forests of alternating sizes in one run *)
let prop_prune_back_to_back =
  Tutil.qtest ~count:100 "prune = Hashtbl reference across graph sizes"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun (lo, hi) ->
          let g, rng = Tutil.random_connected_graph seed ~lo ~hi in
          let w = Tutil.tied_weights rng g in
          let arr = Array.of_list (Mcgraph.Mst.kruskal g ~weight:(Tutil.weight_fn w)) in
          Topology.Rng.shuffle rng arr;
          let forest = Array.to_list arr in
          let terminals =
            List.filter
              (fun _ -> Topology.Rng.int rng 4 = 0)
              (List.init (G.n g) Fun.id)
          in
          S.prune g ~terminals forest = Oracle.Ref_kmb.prune g ~terminals forest
          && S.dedup_edges g (forest @ forest) = forest)
        Tutil.size_ladder)

(* the whole of KMB under ties: the array kernels and the vector Dijkstra
   give the tree the reference kernels give. [kmb_with_metric] is run
   too, with the closure read off the same trees and each path [x → y]
   walked up [y]'s tree from [x] (as Online_CP answers a non-terminal
   end): its reference expands the closure MST with those lists. *)
let prop_kmb_matches_reference =
  Tutil.qtest ~count:150 "kmb = kmb over reference kernels (ties)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, rng, w, _, terminals = forest_instance seed in
      let terminals =
        List.sort_uniq compare (Topology.Rng.int rng (G.n g) :: terminals)
      in
      let weight = Tutil.weight_fn w in
      let trees =
        List.map (fun t -> (t, Oracle.Ref_paths.swap_heap_dijkstra g ~weight ~source:t)) terminals
      in
      let tree_of u = List.assoc u trees in
      let up_list x y =
        let t = tree_of y in
        let rec up v =
          if v = y then []
          else t.Mcgraph.Paths.parent_edge.(v) :: up t.Mcgraph.Paths.parent.(v)
        in
        if t.Mcgraph.Paths.dist.(x) = infinity then None else Some (up x)
      in
      let expected path =
        match
          Mcgraph.Mst.prim_metric ~points:(Array.of_list terminals)
            ~dist:(fun u v -> (tree_of u).Mcgraph.Paths.dist.(v))
        with
        | None -> None
        | Some closure ->
          let expanded =
            List.concat_map (fun (a, b) -> Option.get (path a b)) closure
          in
          let sub = Oracle.Ref_kmb.dedup_edges expanded in
          let mst2 = Oracle.Ref_kmb.kruskal_edges g ~weight sub in
          Some (Oracle.Ref_kmb.prune g ~terminals mst2)
      in
      let row u dst n out =
        for i = 0 to n - 1 do
          out.(i) <- (tree_of u).Mcgraph.Paths.dist.(dst.(i))
        done
      in
      let path_up x y emit =
        match up_list x y with
        | None -> false
        | Some edges ->
          List.iter emit edges;
          true
      in
      S.kmb g ~weight ~terminals
      = expected (fun a b -> Mcgraph.Paths.path_edges g (tree_of a) b)
      && S.kmb_with_metric g ~spokes:[||] ~weights:w ~spoke_weights:[||]
           ~terminals:(Array.of_list terminals) ~row ~path:path_up
         = expected up_list)

(* Over a graph plus a star of spokes (edge m + i from the hub n to
   spokes.(i)), [kmb_with_metric] returns, bit for bit, the edges it
   returns over the star materialised as a graph
   ([Oracle.Ref_aux.extended]), and those of the reference kernels
   there. The closure is read off Dijkstra on the materialised graph. A
   second pair of runs takes a [path] that emits random edge lists
   (repeats, cycles, spokes), so the second spanning tree and the leaf
   pruning run on arbitrary inputs. Integer weights on the spokes too
   make ties common. *)
let prop_spokes_match_materialised =
  Tutil.qtest ~count:300 "kmb over spokes = kmb over the materialised graph"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module Rng = Topology.Rng in
      let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:30 in
      let n = G.n g and m = G.m g in
      let spokes =
        Array.of_list (Rng.sample_without_replacement rng (min n (Rng.int rng 7)) n)
      in
      let k = Array.length spokes in
      let w = Tutil.tied_weights rng g in
      let sw = Array.map (fun _ -> float_of_int (1 + Rng.int rng 3)) spokes in
      let ext = Oracle.Ref_aux.extended g (Array.to_list spokes) in
      let weight = Tutil.weight_fn (Array.append w sw) in
      let terminals =
        List.sort_uniq compare
          (Rng.int rng (n + 1)
          :: List.filter (fun _ -> Rng.int rng 4 = 0) (List.init (n + 1) Fun.id))
      in
      let points = Array.of_list terminals in
      let trees =
        List.map
          (fun t -> (t, Oracle.Ref_paths.swap_heap_dijkstra ext ~weight ~source:t))
          terminals
      in
      let tree_of u = List.assoc u trees in
      let row u dst n out =
        for i = 0 to n - 1 do
          out.(i) <- (tree_of u).Mcgraph.Paths.dist.(dst.(i))
        done
      in
      let shortest u v = Mcgraph.Paths.path_edges ext (tree_of u) v in
      let noise u v =
        let r = Rng.create ((seed * 31) + (u * 1009) + v) in
        Some (List.init (Rng.int r 8) (fun _ -> Rng.int r (m + k)))
      in
      let emitting paths u v emit =
        match paths u v with
        | None -> false
        | Some edges ->
          List.iter emit edges;
          true
      in
      let expected paths =
        match
          Oracle.Ref_kmb.prim_metric ~points ~dist:(fun u v ->
              (tree_of u).Mcgraph.Paths.dist.(v))
        with
        | None -> None
        | Some closure ->
          let expanded =
            List.concat_map (fun (a, b) -> Option.get (paths a b)) closure
          in
          let sub = Oracle.Ref_kmb.dedup_edges expanded in
          let mst2 = Oracle.Ref_kmb.kruskal_edges ext ~weight sub in
          Some (Oracle.Ref_kmb.prune ext ~terminals mst2)
      in
      List.for_all
        (fun paths ->
          let path = emitting paths in
          let star =
            S.kmb_with_metric g ~spokes ~weights:w ~spoke_weights:sw ~terminals:points
              ~row ~path
          in
          let flat =
            S.kmb_with_metric ext ~spokes:[||] ~weights:(Array.append w sw)
              ~spoke_weights:[||] ~terminals:points ~row ~path
          in
          star = flat && star = expected paths)
        [ shortest; noise ])

(* A KMB run over a closure read off Dijkstra trees, with its expected
   bottleneck: the largest closure distance among the pairs the
   reference Prim picks ([neg_infinity] for one terminal). *)
let closure_run seed =
  let g, rng, w, _, terminals = forest_instance seed in
  let terminals =
    Array.of_list (List.sort_uniq compare (Topology.Rng.int rng (G.n g) :: terminals))
  in
  let weight = Tutil.weight_fn w in
  let trees =
    List.map
      (fun t -> (t, Oracle.Ref_paths.swap_heap_dijkstra g ~weight ~source:t))
      (Array.to_list terminals)
  in
  let tree_of u = List.assoc u trees in
  let dist u v = (tree_of u).Mcgraph.Paths.dist.(v) in
  let row u dst n out =
    for i = 0 to n - 1 do
      out.(i) <- dist u dst.(i)
    done
  in
  let kmb () =
    S.kmb_with_metric g ~spokes:[||] ~weights:w ~spoke_weights:[||] ~terminals ~row
      ~path:(fun u v emit -> Mcgraph.Paths.iter_path (tree_of u) v emit)
  in
  let expected =
    Option.map
      (List.fold_left (fun m (a, b) -> Float.max m (dist a b)) neg_infinity)
      (Oracle.Ref_kmb.prim_metric ~points:terminals ~dist)
  in
  (terminals, row, kmb, expected)

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

(* whether a run leaves its own bottleneck behind *)
let reads_own run expected =
  match (run (), expected) with
  | Some _, Some b -> same_bits (S.closure_bottleneck ()) b
  | None, None -> true
  | _ -> false

let prop_closure_bottleneck =
  Tutil.qtest ~count:200 "closure_bottleneck = longest closure-MST edge"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let points, row, kmb, expected = closure_run seed in
      reads_own kmb expected
      && reads_own (fun () -> Mcgraph.Mst.prim_rows ~points ~row) expected)

(* the bottleneck is per domain: a second domain's runs leave this one's
   reading alone *)
let test_bottleneck_per_domain () =
  let _, _, kmb, expected = closure_run 7 in
  Alcotest.(check bool) "this domain reads its run" true (reads_own kmb expected);
  let here = S.closure_bottleneck () in
  let other =
    Domain.spawn (fun () ->
        List.for_all
          (fun seed ->
            let _, _, kmb, expected = closure_run seed in
            reads_own kmb expected)
          (List.init 50 (fun i -> 100 + i)))
  in
  Alcotest.(check bool) "the other domain reads its own" true (Domain.join other);
  Alcotest.(check bool) "this one is untouched" true
    (same_bits (S.closure_bottleneck ()) here)

(* each domain has its own scratch: KMB on two domains at once gives
   the trees one domain gives in sequence *)
let test_kmb_two_domains () =
  let instances =
    List.init 40 (fun seed ->
        let lo, hi = List.nth Tutil.size_ladder (seed mod 4) in
        let g, rng = Tutil.random_connected_graph (1000 + seed) ~lo ~hi in
        let w = Tutil.tied_weights rng g in
        let terminals =
          List.init (2 + Topology.Rng.int rng 6) (fun _ ->
              Topology.Rng.int rng (G.n g))
        in
        (g, Tutil.weight_fn w, terminals))
  in
  let run_all order =
    List.map (fun (g, weight, terminals) -> S.kmb g ~weight ~terminals) order
  in
  let sequential = run_all instances in
  for _ = 1 to 5 do
    let other = Domain.spawn (fun () -> List.rev (run_all (List.rev instances))) in
    let here = run_all instances in
    let there = Domain.join other in
    if here <> sequential || there <> sequential then
      Alcotest.fail "kmb differs across domains"
  done

let () =
  Alcotest.run "steiner"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial terminal sets" `Quick test_trivial_terminals;
          Alcotest.test_case "pair = shortest path" `Quick test_pair_is_shortest_path;
          Alcotest.test_case "star instance" `Quick test_star_uses_steiner_node;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "prune" `Quick test_prune;
          Alcotest.test_case "prune cascades" `Quick test_prune_cascades;
          Alcotest.test_case "exact on C4" `Quick test_exact_known;
          Alcotest.test_case "exact uses steiner node" `Quick test_exact_steiner_node;
          Alcotest.test_case "exact terminal guard" `Quick test_exact_too_many_terminals;
          Alcotest.test_case "is_steiner_tree" `Quick test_is_steiner_tree;
          Alcotest.test_case "kmb on two domains" `Quick test_kmb_two_domains;
          Alcotest.test_case "bottleneck per domain" `Quick test_bottleneck_per_domain;
        ] );
      ( "property",
        [
          prop_kmb_valid;
          prop_exact_valid;
          prop_kmb_ratio;
          prop_exact_lower_bounds_kmb;
          prop_two_terminals;
          prop_prune_matches_reference;
          prop_prune_back_to_back;
          prop_dedup_matches_reference;
          prop_kmb_matches_reference;
          prop_spokes_match_materialised;
          prop_closure_bottleneck;
        ] );
    ]
