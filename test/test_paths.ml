module G = Mcgraph.Graph
module P = Mcgraph.Paths

let path_graph n = G.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let unit_weight _ = 1.0

let test_dijkstra_path () =
  let g = path_graph 5 in
  let spt = P.dijkstra g ~weight:unit_weight ~source:0 in
  Alcotest.check Tutil.check_float "distance" 4.0 spt.P.dist.(4);
  Alcotest.(check (option (list int))) "edge path" (Some [ 0; 1; 2; 3 ])
    (P.path_edges g spt 4);
  Alcotest.(check (option (list int))) "node path" (Some [ 0; 1; 2; 3; 4 ])
    (P.path_nodes g spt 4)

let test_dijkstra_picks_cheaper () =
  (* 0-1 direct cost 10; 0-2-1 cost 2 *)
  let g = G.of_edges ~n:3 [ (0, 1); (0, 2); (2, 1) ] in
  let w = [| 10.0; 1.0; 1.0 |] in
  let spt = P.dijkstra g ~weight:(Tutil.weight_fn w) ~source:0 in
  Alcotest.check Tutil.check_float "cheap route" 2.0 spt.P.dist.(1);
  Alcotest.(check (option (list int))) "via node 2" (Some [ 1; 2 ])
    (P.path_edges g spt 1)

let test_dijkstra_unreachable () =
  let g = G.of_edges ~n:3 [ (0, 1) ] in
  let spt = P.dijkstra g ~weight:unit_weight ~source:0 in
  Alcotest.(check bool) "infinite" true (spt.P.dist.(2) = infinity);
  Alcotest.(check (option (list int))) "no path" None (P.path_edges g spt 2)

let test_dijkstra_infinite_edge_pruned () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let w e = if e = 1 then infinity else 1.0 in
  let spt = P.dijkstra g ~weight:w ~source:0 in
  Alcotest.(check bool) "pruned" true (spt.P.dist.(2) = infinity)

let test_dijkstra_negative_rejected () =
  let g = G.of_edges ~n:2 [ (0, 1) ] in
  Alcotest.check_raises "negative"
    (Invalid_argument "Paths.dijkstra: negative weight") (fun () ->
      ignore (P.dijkstra g ~weight:(fun _ -> -1.0) ~source:0))

let test_source_path () =
  let g = path_graph 3 in
  let spt = P.dijkstra g ~weight:unit_weight ~source:1 in
  Alcotest.(check (option (list int))) "empty at source" (Some []) (P.path_edges g spt 1)

let test_zero_weight_edges () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let spt = P.dijkstra g ~weight:(fun _ -> 0.0) ~source:0 in
  Alcotest.check Tutil.check_float "all zero" 0.0 spt.P.dist.(3);
  match P.path_edges g spt 3 with
  | Some edges -> Alcotest.(check int) "still a real path" 3 (List.length edges)
  | None -> Alcotest.fail "unreachable"

let test_apsp () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let w = [| 1.0; 1.0; 1.0; 10.0 |] in
  let a = P.all_pairs g ~weight:(Tutil.weight_fn w) in
  Alcotest.check Tutil.check_float "0->3 via chain" 3.0 (P.apsp_dist a 0 3);
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2 ]) (P.apsp_path a 0 3);
  Alcotest.check Tutil.check_float "symmetric" (P.apsp_dist a 3 0) (P.apsp_dist a 0 3)

let test_path_cost () =
  let w = [| 1.5; 2.5; 3.0 |] in
  Alcotest.check Tutil.check_float "sum" 7.0
    (P.path_cost ~weight:(Tutil.weight_fn w) [ 0; 1; 2 ])

(* ---- properties ---- *)

let with_random_instance seed f =
  let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:35 in
  let w = Tutil.random_weights rng g in
  f g (Tutil.weight_fn w) rng

(* dijkstra agrees with the Bellman–Ford oracle *)
let prop_vs_bellman_ford =
  Tutil.qtest ~count:150 "dijkstra = bellman-ford"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_random_instance seed (fun g weight rng ->
          let s = Topology.Rng.int rng (G.n g) in
          let d1 = (P.dijkstra g ~weight ~source:s).P.dist in
          let d2 = (P.bellman_ford g ~weight ~source:s).P.dist in
          Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) d1 d2))

(* extracted paths are walks whose cost equals the reported distance *)
let prop_path_consistency =
  Tutil.qtest ~count:150 "path cost = distance and path is a walk"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_random_instance seed (fun g weight rng ->
          let s = Topology.Rng.int rng (G.n g) in
          let spt = P.dijkstra g ~weight ~source:s in
          let ok = ref true in
          for t = 0 to G.n g - 1 do
            match P.path_edges g spt t with
            | None -> if spt.P.dist.(t) < infinity then ok := false
            | Some edges ->
              let cost = P.path_cost ~weight edges in
              if Float.abs (cost -. spt.P.dist.(t)) > 1e-6 then ok := false;
              (* walk check *)
              let rec walk node = function
                | [] -> node = t
                | e :: rest ->
                  let u, v = G.endpoints g e in
                  if u = node then walk v rest
                  else if v = node then walk u rest
                  else false
              in
              if not (walk s edges) then ok := false
          done;
          !ok))

(* triangle inequality over the APSP metric *)
let prop_apsp_triangle =
  Tutil.qtest ~count:60 "apsp satisfies the triangle inequality"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_random_instance seed (fun g weight _rng ->
          let a = P.all_pairs g ~weight in
          let n = G.n g in
          let ok = ref true in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              for k = 0 to n - 1 do
                if P.apsp_dist a i j > P.apsp_dist a i k +. P.apsp_dist a k j +. 1e-6
                then ok := false
              done
            done
          done;
          !ok))

(* apsp rows equal fresh single-source runs *)
let prop_apsp_rows =
  Tutil.qtest ~count:60 "apsp rows = dijkstra"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_random_instance seed (fun g weight _ ->
          let a = P.all_pairs g ~weight in
          let ok = ref true in
          for s = 0 to G.n g - 1 do
            let d = (P.dijkstra g ~weight ~source:s).P.dist in
            for t = 0 to G.n g - 1 do
              if Float.abs (d.(t) -. P.apsp_dist a s t) > 1e-6 then ok := false
            done
          done;
          !ok))

(* the weight-vector kernel reproduces the closure-per-relaxation
   Dijkstra bit for bit — distances, parents and parent edges — under
   heavy ties, where the heap's tie-breaks decide the tree *)
let prop_kernel_bit_identical =
  Tutil.qtest ~count:200 "dijkstra kernel = reference (bits, ties)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:40 in
      let w = Tutil.tied_weights rng g in
      let weight = Tutil.weight_fn w in
      let weights = P.weight_vector g ~weight in
      List.for_all
        (fun s ->
          let r = Tutil.reference_dijkstra g ~weight ~source:s in
          Tutil.same_spt r (P.dijkstra g ~weight ~source:s)
          && Tutil.same_spt r (P.dijkstra_vec g ~weights ~source:s))
        (List.init (G.n g) Fun.id))

let () =
  Alcotest.run "paths"
    [
      ( "unit",
        [
          Alcotest.test_case "simple path" `Quick test_dijkstra_path;
          Alcotest.test_case "cheaper detour" `Quick test_dijkstra_picks_cheaper;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "infinity prunes" `Quick test_dijkstra_infinite_edge_pruned;
          Alcotest.test_case "negative rejected" `Quick test_dijkstra_negative_rejected;
          Alcotest.test_case "source path empty" `Quick test_source_path;
          Alcotest.test_case "zero weights" `Quick test_zero_weight_edges;
          Alcotest.test_case "apsp" `Quick test_apsp;
          Alcotest.test_case "path cost" `Quick test_path_cost;
        ] );
      ( "property",
        [
          prop_vs_bellman_ford;
          prop_path_consistency;
          prop_apsp_triangle;
          prop_apsp_rows;
          prop_kernel_bit_identical;
        ] );
    ]
