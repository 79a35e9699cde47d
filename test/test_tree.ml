module G = Mcgraph.Graph
module T = Mcgraph.Tree

(* fixed tree:       0
                    / \
                   1   2
                  / \    \
                 3   4    5
                /
               6            *)
let fixture () =
  let g = G.of_edges ~n:7 [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5); (3, 6) ] in
  (g, T.of_edges g ~root:0 [ 0; 1; 2; 3; 4; 5 ])

let test_structure () =
  let _, t = fixture () in
  Alcotest.(check int) "root" 0 (T.root t);
  Alcotest.(check int) "size" 7 (T.size t);
  Alcotest.(check int) "depth 6" 3 (T.depth t 6);
  Alcotest.(check int) "parent 6" 3 (T.parent t 6);
  Alcotest.(check int) "parent root" (-1) (T.parent t 0);
  Alcotest.(check (list int)) "children of 1" [ 3; 4 ] (List.sort compare (T.children t 1));
  Alcotest.(check (list int)) "leaves" [ 4; 5; 6 ] (List.sort compare (T.leaves t))

let test_lca () =
  let _, t = fixture () in
  Alcotest.(check int) "siblings" 1 (T.lca t 3 4);
  Alcotest.(check int) "cross" 0 (T.lca t 6 5);
  Alcotest.(check int) "ancestor" 1 (T.lca t 1 6);
  Alcotest.(check int) "self" 4 (T.lca t 4 4);
  Alcotest.(check int) "many" 1 (T.lca_many t [ 3; 4; 6 ]);
  Alcotest.(check int) "many cross" 0 (T.lca_many t [ 4; 5 ])

let test_paths () =
  let _, t = fixture () in
  Alcotest.(check (list int)) "path up" [ 5; 2; 0 ] (T.path_up t 6 ~ancestor:0);
  Alcotest.(check (list int)) "path up to mid" [ 5; 2 ] (T.path_up t 6 ~ancestor:1);
  Alcotest.(check (list int)) "between siblings" [ 2; 3 ] (T.path_between t 3 4);
  Alcotest.(check (list int)) "between self" [] (T.path_between t 4 4)

let test_not_in_tree () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let t = T.of_edges g ~root:0 [ 0 ] in
  Alcotest.(check bool) "mem in" true (T.mem t 1);
  Alcotest.(check bool) "mem out" false (T.mem t 2);
  Alcotest.check_raises "depth outside"
    (Invalid_argument "Tree.depth: node not in tree") (fun () ->
      ignore (T.depth t 2))

let test_cycle_rejected () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.check_raises "cycle" (Invalid_argument "Tree.of_edges: cycle in edge set")
    (fun () -> ignore (T.of_edges g ~root:0 [ 0; 1; 2 ]))

let test_disconnected_rejected () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Tree.of_edges: edge set not connected to root") (fun () ->
      ignore (T.of_edges g ~root:0 [ 0; 1 ]))

let test_repeated_edge_rejected () =
  let g = G.of_edges ~n:2 [ (0, 1) ] in
  Alcotest.check_raises "repeat" (Invalid_argument "Tree.of_edges: repeated edge")
    (fun () -> ignore (T.of_edges g ~root:0 [ 0; 0 ]))

let test_edge_id_out_of_range () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  List.iter
    (fun edges ->
      Alcotest.check_raises "out of range"
        (Invalid_argument "Tree.of_edges: edge id out of range") (fun () ->
          ignore (T.of_edges g ~root:0 edges)))
    [ [ 0; 2 ]; [ -1; 0 ]; [ 0; 1; 7 ] ]

(* ---- properties against a naive LCA ---- *)

let random_tree seed =
  let rng = Topology.Rng.create seed in
  let n = 2 + Topology.Rng.int rng 40 in
  let g = G.create n in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := G.add_edge g v (Topology.Rng.int rng v) :: !edges
  done;
  (g, T.of_edges g ~root:0 !edges, rng, n)

let naive_lca t a b =
  let rec ancestors v acc =
    if v = T.root t then v :: acc else ancestors (T.parent t v) (v :: acc)
  in
  let pa = ancestors a [] and pb = ancestors b [] in
  let rec common last = function
    | x :: xs, y :: ys when x = y -> common x (xs, ys)
    | _ -> last
  in
  common (T.root t) (pa, pb)

let prop_lca_naive =
  Tutil.qtest ~count:200 "lca = naive ancestor intersection"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, t, rng, n = random_tree seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let a = Topology.Rng.int rng n and b = Topology.Rng.int rng n in
        if T.lca t a b <> naive_lca t a b then ok := false
      done;
      !ok)

let prop_path_between_depth =
  Tutil.qtest ~count:200 "path_between length = depth sum - 2·lca depth"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, t, rng, n = random_tree seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let a = Topology.Rng.int rng n and b = Topology.Rng.int rng n in
        let u = T.lca t a b in
        let expect = T.depth t a + T.depth t b - (2 * T.depth t u) in
        if List.length (T.path_between t a b) <> expect then ok := false
      done;
      !ok)

let prop_bfs_orders_nodes =
  Tutil.qtest ~count:100 "nodes are listed in non-decreasing depth"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, t, _, _ = random_tree seed in
      let depths = List.map (T.depth t) (T.nodes t) in
      List.sort compare depths = depths)

let prop_leaves_childless =
  Tutil.qtest ~count:100 "leaves are the nodes without children"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, t, _, _ = random_tree seed in
      T.leaves t = List.filter (fun v -> T.children t v = []) (T.nodes t))

(* a random tree inside a random graph: grown from a random root over
   random graph edges (so it rarely spans the graph), its edge ids
   shuffled, and a random keep set that may name nodes off the tree *)
let random_subtree seed =
  let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:30 in
  let n = G.n g in
  let root = Topology.Rng.int rng n in
  let inside = Array.make n false in
  inside.(root) <- true;
  let edges = ref [] in
  for _ = 1 to Topology.Rng.int rng (2 * n) do
    let u = Topology.Rng.int rng n in
    if inside.(u) then
      G.iter_neighbors g u (fun v e ->
          if (not inside.(v)) && Topology.Rng.int rng 3 = 0 then begin
            inside.(v) <- true;
            edges := e :: !edges
          end)
  done;
  let order = Array.of_list !edges in
  Topology.Rng.shuffle rng order;
  let keep =
    List.filter (fun _ -> Topology.Rng.int rng 4 = 0) (List.init n Fun.id)
  in
  (g, root, keep, Array.to_list order)

(* Repair's trim: [Steiner.prune] over the root and the keep set, then
   the rooted remainder *)
let prop_prune_reference =
  Tutil.qtest ~count:300 "prune = the iterative leaf-pruning loop"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g, root, keep, edges = random_subtree seed in
      let support = Mcgraph.Steiner.prune g ~terminals:(root :: keep) edges in
      let t = T.of_edges g ~root support in
      let t', support' = Oracle.Ref_tree.prune g ~root ~keep_nodes:keep edges in
      let shape t =
        List.map
          (fun v -> (v, T.parent t v, T.parent_edge t v, T.depth t v))
          (T.nodes t)
      in
      support = support' && T.edges t = T.edges t' && shape t = shape t')

(* ---- the slot layout against the node-indexed reference ---- *)

let catch f = match f () with x -> Ok x | exception Invalid_argument m -> Error m

(* every answer a tree gives, for every graph node and one off each end
   of the id range, and for every ordered pair of them *)
let answers ~n ~nodes ~mem ~parent ~parent_edge ~depth ~lca ~path_up ~path_between =
  let vs = List.init (n + 2) (fun i -> i - 1) in
  ( nodes,
    List.map
      (fun v ->
        ( mem v,
          catch (fun () -> parent v),
          catch (fun () -> parent_edge v),
          catch (fun () -> depth v) ))
      vs,
    List.concat_map
      (fun a ->
        List.map
          (fun b ->
            ( catch (fun () -> lca a b),
              catch (fun () -> path_up a ~ancestor:b),
              catch (fun () -> path_between a b) ))
          vs)
      vs )

let agrees g ~root edges =
  let module R = Oracle.Ref_tree in
  let n = G.n g in
  match (catch (fun () -> T.of_edges g ~root edges), catch (fun () -> R.of_edges g ~root edges)) with
  | Error a, Error b -> a = b
  | Ok t, Ok r ->
    T.edges t == edges
    && T.size t = List.length (R.nodes r)
    && answers ~n ~nodes:(T.nodes t) ~mem:(T.mem t) ~parent:(T.parent t)
         ~parent_edge:(T.parent_edge t) ~depth:(T.depth t) ~lca:(T.lca t)
         ~path_up:(T.path_up t) ~path_between:(T.path_between t)
       = answers ~n ~nodes:(R.nodes r) ~mem:(R.mem r) ~parent:(R.parent r)
           ~parent_edge:(R.parent_edge r) ~depth:(R.depth r) ~lca:(R.lca r)
           ~path_up:(R.path_up r) ~path_between:(R.path_between r)
  | _ -> false

(* [x] inserted at a random position of [l] *)
let insert_at rng x l =
  let i = Topology.Rng.int rng (List.length l + 1) in
  List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

let prop_layout_reference =
  Tutil.qtest ~count:100 "of_edges and queries = node-indexed reference"
    QCheck.(int_bound 100_000)
    (fun seed ->
      (* a spanning tree: [random_connected_graph] lays edges [0, n-1)
         down as one, the rest close cycles *)
      let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:30 in
      let n = G.n g and m = G.m g in
      let spanning = Array.init (n - 1) Fun.id in
      Topology.Rng.shuffle rng spanning;
      let spanning = Array.to_list spanning in
      let root = Topology.Rng.int rng n in
      let pick l = List.nth l (Topology.Rng.int rng (List.length l)) in
      let bad =
        [ insert_at rng (-1) spanning; insert_at rng (m + Topology.Rng.int rng 3) spanning ]
        @ (if m > n - 1 then [ insert_at rng (n - 1 + Topology.Rng.int rng (m - n + 1)) spanning ]
           else [])
        @
        if spanning = [] then []
        else
          [
            insert_at rng (pick spanning) spanning;
            List.filter (fun e -> e <> pick spanning) spanning;
          ]
      in
      let g', root', _, sub = random_subtree seed in
      agrees g ~root spanning
      && agrees g' ~root:root' sub
      && List.for_all (agrees g ~root) bad
      && agrees g ~root:n spanning
      && agrees g ~root:(-1) [ -1 ])

(* ---- scratch rooting against [of_edges] ---- *)

module S = T.Scratch

(* an [Invalid_argument] message without its function name *)
let reason f =
  match f () with
  | x -> Ok x
  | exception Invalid_argument m -> (
    match String.index_opt m ':' with
    | Some i -> Error (String.sub m i (String.length m - i))
    | None -> Error m)

let scratch_mem v = Result.is_ok (reason (fun () -> S.parent v))

(* the v → ancestor climb read off the scratch parents *)
let scratch_path_up v ~ancestor =
  let rec climb x = if x = ancestor then [] else S.parent_edge x :: climb (S.parent x) in
  climb v

(* After [S.root g ~root edges], every scratch answer matches the tree
   [of_edges] builds: membership, parents and parent edges for every
   node and one off each end, and, for random [v] and node sets, the
   LCA and the v → LCA backtrack ([lca_many] and [path_up]). *)
let scratch_agrees rng g ~root edges =
  let n = G.n g in
  let vs = List.init (n + 2) (fun i -> i - 1) in
  (* [of_edges] roots in the scratch too, so it goes first *)
  let tree = reason (fun () -> T.of_edges g ~root edges) in
  match (tree, reason (fun () -> S.root g ~root edges)) with
  | Error a, Error b -> a = b && not (List.exists scratch_mem vs)
  | Ok t, Ok () ->
    List.for_all
      (fun v ->
        scratch_mem v = T.mem t v
        && reason (fun () -> S.parent v) = reason (fun () -> T.parent t v)
        && reason (fun () -> S.parent_edge v) = reason (fun () -> T.parent_edge t v))
      vs
    && List.for_all
         (fun _ ->
           let pick () = List.nth vs (Topology.Rng.int rng (n + 2)) in
           let v = pick () in
           let others = List.init (Topology.Rng.int rng 4) (fun _ -> pick ()) in
           (* [lca_many] returns a lone node unchecked *)
           match reason (fun () -> T.lca_many t (v :: others)) with
           | Ok _ when not (T.mem t v) ->
             reason (fun () -> S.lca v others) = Error ": node not in tree"
           | Error _ as e -> reason (fun () -> S.lca v others) = e
           | Ok u ->
             S.lca v others = u
             && scratch_path_up v ~ancestor:u = T.path_up t v ~ancestor:u)
         (List.init 20 Fun.id)
  | _ -> false

let prop_scratch_reference =
  Tutil.qtest ~count:200 "scratch rooting = of_edges (lca, backtrack)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      (* a random subtree, a rooting of a graph of another size in
         between (stale marks, grown arrays), the single-node tree, and
         the edge sets [of_edges] refuses *)
      let g, root, _, edges = random_subtree seed in
      let g', root', _, edges' = random_subtree (seed + 1) in
      let rng = Topology.Rng.create seed in
      let m = G.m g in
      let bad =
        [ insert_at rng (-1) edges; insert_at rng (m + Topology.Rng.int rng 3) edges ]
        @
        match edges with
        | [] -> []
        | e :: _ -> [ insert_at rng e edges ]
      in
      scratch_agrees rng g ~root edges
      && scratch_agrees rng g' ~root:root' edges'
      && scratch_agrees rng g ~root edges
      && scratch_agrees rng g ~root []
      && scratch_agrees rng g ~root:(G.n g) edges
      && List.for_all (scratch_agrees rng g ~root) bad
      && scratch_agrees rng g ~root edges)

let test_scratch_single_node () =
  let g, _ = fixture () in
  S.root g ~root:4 [];
  Alcotest.(check bool) "root in" true (scratch_mem 4);
  Alcotest.(check bool) "neighbour out" false (scratch_mem 1);
  Alcotest.(check int) "lca of the root" 4 (S.lca 4 []);
  Alcotest.(check int) "lca of the root twice" 4 (S.lca 4 [ 4 ]);
  Alcotest.(check int) "parent" (-1) (S.parent 4);
  Alcotest.check_raises "lca off the tree"
    (Invalid_argument "Tree.Scratch.lca: node not in tree") (fun () ->
      ignore (S.lca 4 [ 1 ]))

let test_scratch_cycle () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.check_raises "cycle" (Invalid_argument "Tree.Scratch.root: cycle in edge set")
    (fun () -> S.root g ~root:0 [ 0; 1; 2 ])

(* each domain keeps its own rooting *)
let test_scratch_per_domain () =
  let g, _ = fixture () in
  S.root g ~root:0 [ 0; 1; 2; 3; 4; 5 ];
  let other =
    Domain.spawn (fun () ->
        S.root g ~root:6 [ 5; 2; 0; 1 ];
        (S.parent 0, S.lca 2 [ 3 ]))
  in
  let p0, l = Domain.join other in
  Alcotest.(check (pair int int)) "other domain's rooting" (1, 3) (p0, l);
  Alcotest.(check int) "own rooting kept" (-1) (S.parent 0);
  Alcotest.(check int) "own lca" 0 (S.lca 6 [ 5 ])

let () =
  Alcotest.run "tree"
    [
      ( "unit",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "lca" `Quick test_lca;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "non-tree nodes" `Quick test_not_in_tree;
          Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "disconnected rejected" `Quick test_disconnected_rejected;
          Alcotest.test_case "repeated edge rejected" `Quick test_repeated_edge_rejected;
          Alcotest.test_case "edge id out of range" `Quick test_edge_id_out_of_range;
          Alcotest.test_case "scratch single-node tree" `Quick test_scratch_single_node;
          Alcotest.test_case "scratch cycle rejected" `Quick test_scratch_cycle;
          Alcotest.test_case "scratch rooting per domain" `Quick test_scratch_per_domain;
        ] );
      ( "property",
        [
          prop_lca_naive;
          prop_path_between_depth;
          prop_bfs_orders_nodes;
          prop_leaves_childless;
          prop_prune_reference;
          prop_layout_reference;
          prop_scratch_reference;
        ] );
    ]
