module G = Mcgraph.Graph
module P = Mcgraph.Paths
module R = Oracle.Ref_paths

let path_graph n = G.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let unit_weight _ = 1.0

let test_dijkstra_path () =
  let g = path_graph 5 in
  let spt = R.dijkstra g ~weight:unit_weight ~source:0 in
  Alcotest.check Tutil.check_float "distance" 4.0 spt.P.dist.(4);
  Alcotest.(check (option (list int))) "edge path" (Some [ 0; 1; 2; 3 ])
    (P.path_edges g spt 4)

let test_dijkstra_picks_cheaper () =
  (* 0-1 direct cost 10; 0-2-1 cost 2 *)
  let g = G.of_edges ~n:3 [ (0, 1); (0, 2); (2, 1) ] in
  let w = [| 10.0; 1.0; 1.0 |] in
  let spt = R.dijkstra g ~weight:(Tutil.weight_fn w) ~source:0 in
  Alcotest.check Tutil.check_float "cheap route" 2.0 spt.P.dist.(1);
  Alcotest.(check (option (list int))) "via node 2" (Some [ 1; 2 ])
    (P.path_edges g spt 1)

(* two equal-cost routes to node 3: the first relaxation stands and an
   equal one does not replace it. Slots list a node's newest edge first,
   so node 2 is relaxed, popped and scanned before node 1, and node 3
   keeps parent 2 (edge 3). *)
let test_tie_keeps_first_parent () =
  let g = G.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let weights = [| 1.0; 1.0; 1.0; 1.0 |] in
  let spt = P.dijkstra_vec g ~weights ~source:0 in
  Alcotest.(check int) "parent" 2 spt.P.parent.(3);
  Alcotest.(check int) "parent edge" 3 spt.P.parent_edge.(3);
  Alcotest.(check bool) "= reference" true
    (Tutil.same_spt spt
       (Oracle.Ref_paths.swap_heap_dijkstra g ~weight:(Tutil.weight_fn weights)
          ~source:0))

let test_dijkstra_unreachable () =
  let g = G.of_edges ~n:3 [ (0, 1) ] in
  let spt = R.dijkstra g ~weight:unit_weight ~source:0 in
  Alcotest.(check bool) "infinite" true (spt.P.dist.(2) = infinity);
  Alcotest.(check (option (list int))) "no path" None (P.path_edges g spt 2)

let test_dijkstra_infinite_edge_pruned () =
  let g = G.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let w e = if e = 1 then infinity else 1.0 in
  let spt = R.dijkstra g ~weight:w ~source:0 in
  Alcotest.(check bool) "pruned" true (spt.P.dist.(2) = infinity)

let test_dijkstra_negative_rejected () =
  let g = G.of_edges ~n:2 [ (0, 1) ] in
  Alcotest.check_raises "negative"
    (Invalid_argument "Paths.dijkstra: negative weight") (fun () ->
      ignore (R.dijkstra g ~weight:(fun _ -> -1.0) ~source:0))

let test_short_weight_vector () =
  let g = path_graph 4 in
  Alcotest.check_raises "short vector"
    (Invalid_argument "Paths.dijkstra: weight vector shorter than the edge count")
    (fun () -> ignore (P.dijkstra_vec g ~weights:[| 1.0; 1.0 |] ~source:0));
  (* a longer vector is fine: entries past [Graph.m g] are never read *)
  let spt = P.dijkstra_vec g ~weights:[| 1.0; 1.0; 1.0; -1.0 |] ~source:0 in
  Alcotest.check Tutil.check_float "distance" 3.0 spt.P.dist.(3)

let test_source_path () =
  let g = path_graph 3 in
  let spt = R.dijkstra g ~weight:unit_weight ~source:1 in
  Alcotest.(check (option (list int))) "empty at source" (Some []) (P.path_edges g spt 1)

let test_zero_weight_edges () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let spt = R.dijkstra g ~weight:(fun _ -> 0.0) ~source:0 in
  Alcotest.check Tutil.check_float "all zero" 0.0 spt.P.dist.(3);
  match P.path_edges g spt 3 with
  | Some edges -> Alcotest.(check int) "still a real path" 3 (List.length edges)
  | None -> Alcotest.fail "unreachable"

let test_apsp () =
  let g = G.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let w = [| 1.0; 1.0; 1.0; 10.0 |] in
  let a = R.all_pairs g ~weight:(Tutil.weight_fn w) in
  Alcotest.check Tutil.check_float "0->3 via chain" 3.0 (R.apsp_dist a 0 3);
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2 ]) (R.apsp_path a 0 3);
  Alcotest.check Tutil.check_float "symmetric" (R.apsp_dist a 3 0) (R.apsp_dist a 0 3)

let test_path_cost () =
  let w = [| 1.5; 2.5; 3.0 |] in
  Alcotest.check Tutil.check_float "sum" 7.0
    (Mcgraph.Steiner.tree_cost ~weight:(Tutil.weight_fn w) [ 0; 1; 2 ])

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
          let d1 = (R.dijkstra g ~weight ~source:s).P.dist in
          let d2 = (R.bellman_ford g ~weight ~source:s).P.dist in
          Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) d1 d2))

(* extracted paths are walks whose cost equals the reported distance *)
let prop_path_consistency =
  Tutil.qtest ~count:150 "path cost = distance and path is a walk"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_random_instance seed (fun g weight rng ->
          let s = Topology.Rng.int rng (G.n g) in
          let spt = R.dijkstra g ~weight ~source:s in
          let ok = ref true in
          for t = 0 to G.n g - 1 do
            match P.path_edges g spt t with
            | None -> if spt.P.dist.(t) < infinity then ok := false
            | Some edges ->
              let cost = Mcgraph.Steiner.tree_cost ~weight edges in
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
          let a = R.all_pairs g ~weight in
          let n = G.n g in
          let ok = ref true in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              for k = 0 to n - 1 do
                if R.apsp_dist a i j > R.apsp_dist a i k +. R.apsp_dist a k j +. 1e-6
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
          let a = R.all_pairs g ~weight in
          let ok = ref true in
          for s = 0 to G.n g - 1 do
            let d = (R.dijkstra g ~weight ~source:s).P.dist in
            for t = 0 to G.n g - 1 do
              if Float.abs (d.(t) -. R.apsp_dist a s t) > 1e-6 then ok := false
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
          let r = Oracle.Ref_paths.swap_heap_dijkstra g ~weight ~source:s in
          Tutil.same_spt r (R.dijkstra g ~weight ~source:s)
          && Tutil.same_spt r (P.dijkstra_vec g ~weights ~source:s))
        (List.init (G.n g) Fun.id))

(* The kernel's heap arrays are per-domain scratch: runs on graphs of
   alternating sizes (so the scratch grows, then is reused on a smaller
   graph) and runs right after one aborted by a negative weight (which
   must reset the heap entries it leaves) must still match the
   reference bit for bit. *)
let prop_scratch_reuse =
  Tutil.qtest ~count:60 "dijkstra kernel = reference across scratch reuse"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun (lo, hi) ->
          let g, rng = Tutil.random_connected_graph seed ~lo ~hi in
          let w = Tutil.tied_weights rng g in
          let weight = Tutil.weight_fn w in
          let weights = P.weight_vector g ~weight in
          let negative = Array.map (fun x -> if x = 0.0 then -1.0 else x) weights in
          let same s =
            Tutil.same_spt (Oracle.Ref_paths.swap_heap_dijkstra g ~weight ~source:s)
              (P.dijkstra_vec g ~weights ~source:s)
          in
          List.for_all
            (fun s ->
              same s
              && begin
                (try ignore (P.dijkstra_vec g ~weights:negative ~source:s)
                 with Invalid_argument _ -> ());
                same s
              end)
            (List.init (G.n g) Fun.id))
        Tutil.size_ladder)

(* The kernel's one test per scanned slot, on the weights it has to
   get right without settled marks: [-0.0], [infinity] and [nan]
   weights; negative weights (in this graph a slot scanned from a
   settled node never leads to a settled one, as its far end scanned it
   first, so a negative edge is harmless only where the search never
   reaches it, and raises once it does); a weight vector longer than
   [m]; and a source outside [0, n). On each vector the kernel gives the
   reference's tree bits or its exception, and the next run is intact. *)
let prop_kernel_edge_cases =
  Tutil.qtest ~count:200 "dijkstra kernel = reference on edge-case weights"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let module Rng = Topology.Rng in
      let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:30 in
      let n = G.n g in
      let outcome f =
        match f () with
        | spt -> Ok spt
        | exception Invalid_argument msg -> Error msg
      in
      let reference weights source =
        outcome (fun () ->
            Oracle.Ref_paths.swap_heap_dijkstra g
              ~weight:(Tutil.weight_fn weights) ~source)
      in
      let kernel weights source =
        outcome (fun () -> P.dijkstra_vec g ~weights ~source)
      in
      let same a b =
        match (a, b) with
        | Ok a, Ok b -> Tutil.same_spt a b
        | Error a, Error b -> a = b
        | _ -> false
      in
      let base = Tutil.tied_weights rng g in
      let s0 = Rng.int rng n in
      let intact () = same (reference base s0) (kernel base s0) in
      let agree weights source =
        same (reference weights source) (kernel weights source) && intact ()
      in
      let special =
        Array.map
          (fun w ->
            match Rng.int rng 6 with
            | 0 -> -0.0
            | 1 -> infinity
            | 2 -> Float.nan
            | _ -> w)
          base
      in
      (* cut with more [infinity] weights, then put [-1.0] on every edge
         the cut search from [s0] leaves unreached (no raise from [s0]),
         or on one edge at [s0] (raises) *)
      let cut =
        Array.map (fun w -> if Rng.int rng 3 = 0 then infinity else w) special
      in
      let reached =
        match reference cut s0 with Ok spt -> spt.P.dist | Error _ -> [||]
      in
      let hidden =
        Array.mapi
          (fun e w ->
            if reached.(G.edge_u g e) = infinity
               && reached.(G.edge_v g e) = infinity
            then -1.0
            else w)
          cut
      in
      let touched = Array.copy cut in
      let at_s0 = G.neighbors g s0 in
      touched.(snd (List.nth at_s0 (Rng.int rng (List.length at_s0)))) <- -1.0;
      let longer = Array.append special [| -1.0; Float.nan; infinity |] in
      let negative = Error "Paths.dijkstra: negative weight" in
      List.for_all
        (fun source ->
          agree special source && agree hidden source && agree touched source
          && agree longer source)
        (List.init n Fun.id)
      && Result.is_ok (kernel hidden s0)
      && same (kernel touched s0) negative
      && List.for_all
           (fun source ->
             Result.is_error (kernel base source) && agree base source)
           [ -1; n ])

(* [iter_path] streams the list [path_edges] builds: the same edges in
   the same order, nothing and [false] for a target that pruned
   (infinite) edges cut off, nothing for the source itself *)
let prop_iter_path =
  Tutil.qtest ~count:60 "iter_path emits path_edges' list"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun (lo, hi) ->
          let g, rng = Tutil.random_connected_graph seed ~lo ~hi in
          let w = Tutil.tied_weights rng g in
          let weights = P.weight_vector g ~weight:(Tutil.weight_fn w) in
          let s = Topology.Rng.int rng (G.n g) in
          let spt = P.dijkstra_vec g ~weights ~source:s in
          List.for_all
            (fun v ->
              let got = ref [] in
              let reached = P.iter_path spt v (fun e -> got := e :: !got) in
              let emitted = List.rev !got in
              match P.path_edges g spt v with
              | None -> (not reached) && emitted = []
              | Some edges -> reached && emitted = edges && (v <> s || edges = []))
            (List.init (G.n g) Fun.id))
        Tutil.size_ladder)

let () =
  Alcotest.run "paths"
    [
      ( "unit",
        [
          Alcotest.test_case "simple path" `Quick test_dijkstra_path;
          Alcotest.test_case "cheaper detour" `Quick test_dijkstra_picks_cheaper;
          Alcotest.test_case "equal-cost tie keeps the first parent" `Quick
            test_tie_keeps_first_parent;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "infinity prunes" `Quick test_dijkstra_infinite_edge_pruned;
          Alcotest.test_case "negative rejected" `Quick test_dijkstra_negative_rejected;
          Alcotest.test_case "short weight vector" `Quick test_short_weight_vector;
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
          prop_scratch_reuse;
          prop_kernel_edge_cases;
          prop_iter_path;
        ] );
    ]
