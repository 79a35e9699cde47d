module G = Mcgraph.Graph
module T = Mcgraph.Tree
module R = Oracle.Ref_tree

(* fixed tree:       0
                    / \
                   1   2
                  / \    \
                 3   4    5
                /
               6            *)
let fixture () =
  let g = G.of_edges ~n:7 [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5); (3, 6) ] in
  T.root g ~root:0 [ 0; 1; 2; 3; 4; 5 ];
  g

let test_structure () =
  ignore (fixture ());
  Alcotest.(check (list int)) "BFS order" [ 0; 2; 1; 5; 4; 3; 6 ] (T.nodes ());
  Alcotest.(check int) "parent 6" 3 (T.parent 6);
  Alcotest.(check int) "parent edge 6" 5 (T.parent_edge 6);
  Alcotest.(check int) "parent root" (-1) (T.parent 0);
  Alcotest.(check int) "parent edge root" (-1) (T.parent_edge 0)

let test_lca () =
  ignore (fixture ());
  Alcotest.(check int) "siblings" 1 (T.lca 3 [ 4 ]);
  Alcotest.(check int) "cross" 0 (T.lca 6 [ 5 ]);
  Alcotest.(check int) "ancestor" 1 (T.lca 1 [ 6 ]);
  Alcotest.(check int) "self" 4 (T.lca 4 [ 4 ]);
  Alcotest.(check int) "alone" 4 (T.lca 4 []);
  Alcotest.(check int) "many" 1 (T.lca 3 [ 4; 6 ]);
  Alcotest.(check int) "many cross" 0 (T.lca 4 [ 5 ])

let test_paths () =
  ignore (fixture ());
  Alcotest.(check (list int)) "path up" [ 5; 2; 0 ] (T.path_up 6 ~ancestor:0);
  Alcotest.(check (list int)) "path up to mid" [ 5; 2 ] (T.path_up 6 ~ancestor:1);
  Alcotest.(check (list int)) "between siblings" [ 2; 3 ] (T.path_between 3 4);
  Alcotest.(check (list int)) "between self" [] (T.path_between 4 4);
  Alcotest.check_raises "not an ancestor"
    (Invalid_argument "Tree.path_up: not an ancestor") (fun () ->
      ignore (T.path_up 6 ~ancestor:2))

let test_not_in_tree () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  T.root g ~root:0 [ 0 ];
  Alcotest.(check bool) "mem in" true (T.mem 1);
  Alcotest.(check bool) "mem out" false (T.mem 2);
  Alcotest.check_raises "parent outside"
    (Invalid_argument "Tree.parent: node not in tree") (fun () ->
      ignore (T.parent 2))

let test_cycle_rejected () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.check_raises "cycle" (Invalid_argument "Tree.root: cycle in edge set")
    (fun () -> T.root g ~root:0 [ 0; 1; 2 ])

(* a refused edge set leaves no rooting behind, not even the one before *)
let test_scratch_cycle () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  T.root g ~root:0 [ 0; 1 ];
  Alcotest.check_raises "cycle" (Invalid_argument "Tree.root: cycle in edge set")
    (fun () -> T.root g ~root:0 [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "no nodes" [] (T.nodes ());
  Alcotest.(check bool) "root gone" false (T.mem 0);
  Alcotest.check_raises "queries raise"
    (Invalid_argument "Tree.lca: node not in tree") (fun () -> ignore (T.lca 0 []))

let test_disconnected_rejected () =
  let g = G.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Tree.root: edge set not connected to root") (fun () ->
      T.root g ~root:0 [ 0; 1 ])

let test_repeated_edge_rejected () =
  let g = G.of_edges ~n:2 [ (0, 1) ] in
  Alcotest.check_raises "repeat" (Invalid_argument "Tree.root: repeated edge")
    (fun () -> T.root g ~root:0 [ 0; 0 ])

let test_edge_id_out_of_range () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  List.iter
    (fun edges ->
      Alcotest.check_raises "out of range"
        (Invalid_argument "Tree.root: edge id out of range") (fun () ->
          T.root g ~root:0 edges))
    [ [ 0; 2 ]; [ -1; 0 ]; [ 0; 1; 7 ] ]

let test_single_node () =
  let g = fixture () in
  T.root g ~root:4 [];
  Alcotest.(check (list int)) "nodes" [ 4 ] (T.nodes ());
  Alcotest.(check bool) "neighbour out" false (T.mem 1);
  Alcotest.(check int) "lca of the root" 4 (T.lca 4 []);
  Alcotest.(check int) "lca of the root twice" 4 (T.lca 4 [ 4 ]);
  Alcotest.(check int) "parent" (-1) (T.parent 4);
  Alcotest.check_raises "lca off the tree"
    (Invalid_argument "Tree.lca: node not in tree") (fun () ->
      ignore (T.lca 4 [ 1 ]))

(* each domain keeps its own rooting *)
let test_per_domain () =
  let g = fixture () in
  let other =
    Domain.spawn (fun () ->
        T.root g ~root:6 [ 5; 2; 0; 1 ];
        (T.parent 0, T.lca 2 [ 3 ]))
  in
  let p0, l = Domain.join other in
  Alcotest.(check (pair int int)) "other domain's rooting" (1, 3) (p0, l);
  Alcotest.(check int) "own rooting kept" (-1) (T.parent 0);
  Alcotest.(check int) "own lca" 0 (T.lca 6 [ 5 ])

(* ---- properties ---- *)

(* a random tree spanning [n] nodes, rooted at 0 in the domain and in the
   reference *)
let random_tree seed =
  let rng = Topology.Rng.create seed in
  let n = 2 + Topology.Rng.int rng 40 in
  let g = G.create n in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := G.add_edge g v (Topology.Rng.int rng v) :: !edges
  done;
  T.root g ~root:0 !edges;
  (R.of_edges g ~root:0 !edges, rng, n)

let naive_lca a b =
  let rec ancestors v acc =
    if v = 0 then v :: acc else ancestors (T.parent v) (v :: acc)
  in
  let pa = ancestors a [] and pb = ancestors b [] in
  let rec common last = function
    | x :: xs, y :: ys when x = y -> common x (xs, ys)
    | _ -> last
  in
  common 0 (pa, pb)

let prop_lca_naive =
  Tutil.qtest ~count:200 "lca = naive ancestor intersection"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, rng, n = random_tree seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let a = Topology.Rng.int rng n and b = Topology.Rng.int rng n in
        if T.lca a [ b ] <> naive_lca a b then ok := false
      done;
      !ok)

let prop_path_between_depth =
  Tutil.qtest ~count:200 "path_between length = depth sum - 2·lca depth"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let r, rng, n = random_tree seed in
      let ok = ref true in
      for _ = 1 to 20 do
        let a = Topology.Rng.int rng n and b = Topology.Rng.int rng n in
        let u = T.lca a [ b ] in
        let expect = R.depth r a + R.depth r b - (2 * R.depth r u) in
        if List.length (T.path_between a b) <> expect then ok := false
      done;
      !ok)

let prop_bfs_orders_nodes =
  Tutil.qtest ~count:100 "nodes are listed in non-decreasing depth"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let r, _, _ = random_tree seed in
      let depths = List.map (R.depth r) (T.nodes ()) in
      List.sort compare depths = depths)

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
      let r, support' = R.prune g ~root ~keep_nodes:keep edges in
      T.root g ~root support;
      support = support'
      && List.map (fun v -> (v, T.parent v, T.parent_edge v)) (T.nodes ())
         = List.map (fun v -> (v, R.parent r v, R.parent_edge r v)) (R.nodes r))

(* ---- every query against the node-indexed reference ---- *)

let catch f = match f () with x -> Ok x | exception Invalid_argument m -> Error m

(* [x] inserted at a random position of [l] *)
let insert_at rng x l =
  let i = Topology.Rng.int rng (List.length l + 1) in
  List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

(* Roots [edges] in the domain and in the reference and compares what
   they say: the refusal message, after which no node is in the tree;
   or the BFS order, and membership, parent and parent edge of every
   node of [g], one off each end and every node of [stale] (the rooting
   before, whose nodes off this one must raise "node not in tree"),
   [lca], [path_up] and [path_between] on every ordered pair of those,
   and [lca] on random node lists. Returns the rooting's nodes. *)
let agrees rng g ~root edges ~stale =
  let n = G.n g in
  let vs = List.init (n + 2) (fun i -> i - 1) @ stale in
  match (catch (fun () -> T.root g ~root edges), catch (fun () -> R.of_edges g ~root edges)) with
  | Error a, Error b -> (a = b && T.nodes () = [] && not (List.exists T.mem vs), [])
  | Ok (), Ok r ->
    let node v =
      ( T.mem v = R.mem r v,
        catch (fun () -> T.parent v) = catch (fun () -> R.parent r v),
        catch (fun () -> T.parent_edge v) = catch (fun () -> R.parent_edge r v) )
    in
    let pair a b =
      ( catch (fun () -> T.lca a [ b ]) = catch (fun () -> R.lca r a [ b ]),
        catch (fun () -> T.path_up a ~ancestor:b) = catch (fun () -> R.path_up r a ~ancestor:b),
        catch (fun () -> T.path_between a b) = catch (fun () -> R.path_between r a b) )
    in
    let pick () = List.nth vs (Topology.Rng.int rng (List.length vs)) in
    let lca_list () =
      let v = pick () in
      let others = List.init (Topology.Rng.int rng 4) (fun _ -> pick ()) in
      catch (fun () -> T.lca v others) = catch (fun () -> R.lca r v others)
    in
    ( T.nodes () = R.nodes r
      && List.for_all (fun v -> node v = (true, true, true)) vs
      && List.for_all (fun a -> List.for_all (fun b -> pair a b = (true, true, true)) vs) vs
      && List.for_all (fun _ -> lca_list ()) (List.init 20 Fun.id),
      R.nodes r )
  | _ -> (false, [])

(* Roots each of [rootings] in turn, the rooting before's nodes
   passed on as stale, and checks every answer with [agrees] *)
let agree_in_turn rng rootings =
  fst
    (List.fold_left
       (fun (ok, stale) (g, root, edges) ->
         let ok', nodes = agrees rng g ~root edges ~stale in
         (ok && ok', nodes))
       (true, []) rootings)

(* a spanning tree, a subtree, the edge sets rooting refuses and the
   roots off the id range, each against [Ref_tree.of_edges] *)
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
      agree_in_turn rng
        ([ (g, root, spanning); (g', root', sub) ]
        @ List.map (fun edges -> (g, root, edges)) bad
        @ [ (g, n, spanning); (g, -1, [ -1 ]) ]))

(* the domain's scratch across re-rootings: a rooting of a graph of
   another size in between (stale marks, grown arrays), the same
   rooting twice, the single-node tree, a root off the range and the
   edge sets rooting refuses, each against [Ref_tree.of_edges] *)
let prop_scratch_reference =
  Tutil.qtest ~count:200 "scratch rooting = of_edges (lca, backtrack)"
    QCheck.(int_bound 100_000)
    (fun seed ->
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
      agree_in_turn rng
        ([ (g, root, edges); (g', root', edges'); (g, root, edges); (g, root, []) ]
        @ [ (g, G.n g, edges) ]
        @ List.map (fun edges -> (g, root, edges)) bad
        @ [ (g, root, edges); (g', root', edges') ]))

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
          Alcotest.test_case "scratch single-node tree" `Quick test_single_node;
          Alcotest.test_case "scratch cycle rejected" `Quick test_scratch_cycle;
          Alcotest.test_case "scratch rooting per domain" `Quick test_per_domain;
        ] );
      ( "property",
        [
          prop_lca_naive;
          prop_path_between_depth;
          prop_bfs_orders_nodes;
          prop_prune_reference;
          prop_layout_reference;
          prop_scratch_reference;
        ] );
    ]
