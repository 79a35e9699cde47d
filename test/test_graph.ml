module G = Mcgraph.Graph

let test_create () =
  let g = G.create 5 in
  Alcotest.(check int) "n" 5 (G.n g);
  Alcotest.(check int) "m" 0 (G.m g)

let test_add_edge () =
  let g = G.create 3 in
  let e0 = G.add_edge g 0 1 in
  let e1 = G.add_edge g 1 2 in
  Alcotest.(check int) "first id" 0 e0;
  Alcotest.(check int) "second id" 1 e1;
  Alcotest.(check int) "m" 2 (G.m g);
  Alcotest.(check (pair int int)) "endpoints" (0, 1) (G.endpoints g 0);
  Alcotest.(check int) "other endpoint" 0 (G.other_endpoint g 0 1);
  Alcotest.(check int) "degree 1" 2 (G.degree g 1);
  Alcotest.(check int) "degree 0" 1 (G.degree g 0)

let test_self_loop_rejected () =
  let g = G.create 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (G.add_edge g 1 1))

let test_out_of_range () =
  let g = G.create 2 in
  Alcotest.check_raises "bad node"
    (Invalid_argument "Graph.add_edge: node out of range") (fun () ->
      ignore (G.add_edge g 0 2))

let test_parallel_edges () =
  let g = G.create 2 in
  let e0 = G.add_edge g 0 1 in
  let e1 = G.add_edge g 0 1 in
  Alcotest.(check bool) "distinct ids" true (e0 <> e1);
  Alcotest.(check int) "m" 2 (G.m g);
  Alcotest.(check (option int)) "find_edge returns first" (Some e0)
    (G.find_edge g 0 1)

let test_find_edge () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (option int)) "present" (Some 1) (G.find_edge g 2 1);
  Alcotest.(check (option int)) "absent" None (G.find_edge g 0 3);
  Alcotest.(check bool) "mem" true (G.mem_edge g 3 2)

let test_neighbors () =
  let g = G.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  let ns = List.sort compare (List.map fst (G.neighbors g 0)) in
  Alcotest.(check (list int)) "star center" [ 1; 2; 3 ] ns;
  Alcotest.(check (list int)) "leaf" [ 0 ] (List.map fst (G.neighbors g 2))

let test_iter_fold () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let count = ref 0 in
  G.iter_edges g (fun _ _ _ -> incr count);
  Alcotest.(check int) "iter count" 3 !count;
  Alcotest.(check (list (triple int int int))) "edge_list in id order"
    [ (0, 0, 1); (1, 1, 2); (2, 2, 3) ] (G.edge_list g)

let test_copy_independent () =
  let g = G.of_edges ~n:3 [ (0, 1) ] in
  let g' = G.copy g in
  ignore (G.add_edge g' 1 2);
  Alcotest.(check int) "original unchanged" 1 (G.m g);
  Alcotest.(check int) "copy extended" 2 (G.m g')

let test_growth () =
  (* exceed the initial internal capacity to exercise array growth *)
  let g = G.create 100 in
  for i = 0 to 98 do
    ignore (G.add_edge g i (i + 1))
  done;
  Alcotest.(check int) "m" 99 (G.m g);
  Alcotest.(check (pair int int)) "late edge" (98, 99) (G.endpoints g 98)

let () =
  Alcotest.run "graph"
    [
      ( "structure",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "add_edge" `Quick test_add_edge;
          Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "node out of range" `Quick test_out_of_range;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "find_edge" `Quick test_find_edge;
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "iter/fold" `Quick test_iter_fold;
          Alcotest.test_case "copy independence" `Quick test_copy_independent;
          Alcotest.test_case "growth" `Quick test_growth;
        ] );
    ]
