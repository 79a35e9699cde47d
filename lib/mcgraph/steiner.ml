let tree_cost ~weight edges =
  List.fold_left (fun acc e -> acc +. weight e) 0.0 edges

(* Seen edges are marked in the domain's stamped map, keyed by edge id,
   so deduplicating costs the list's length, not the graph's edge count:
   [first_sight s e] marks [e] and tells whether it was unmarked. *)
let first_sight s e =
  Kernels.find s e < 0
  && begin
    Kernels.bind s e 0;
    true
  end

let dedup_edges g edges =
  let s = Kernels.get () in
  Kernels.reset_keys s ~size:(Graph.m g);
  List.filter (first_sight s) edges

let prune g ~terminals edges =
  let s = Kernels.get () in
  let src = Kernels.of_list s.edges_a edges in
  Kernels.prune g ~terminals src (List.length edges)

(* terminals sorted with duplicates removed; a list already in that
   form (as callers pricing many subsets pass it) is returned as is *)
let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | _ -> true

let sorted_terminals terminals =
  if strictly_increasing terminals then terminals
  else List.sort_uniq Int.compare terminals

(* Shared core of both KMB variants: given a sorted unique terminal list
   and a metric closure read by rows, build an MST over the closure,
   expand its edges into shortest paths (first occurrences kept, in
   order, straight into the scratch), re-run an MST on the expanded
   subgraph and prune non-terminal leaves. *)
let kmb_core g ~weight ~terminals ~row ~path =
  let points = Array.of_list terminals in
  match Mst.prim_rows ~points ~row with
  | None -> None
  | Some closure_mst ->
    let s = Kernels.get () in
    Kernels.reset_keys s ~size:(Graph.m g);
    let n = ref 0 in
    List.iter
      (fun (a, b) ->
        match path a b with
        | Some edges ->
          List.iter
            (fun e ->
              if first_sight s e then begin
                Kernels.push s.edges_a !n e;
                incr n
              end)
            edges
        | None -> invalid_arg "Steiner.kmb: metric/path disagree")
      closure_mst;
    let sub = Kernels.ints s.edges_a !n in
    let k = Kernels.kruskal g ~weight sub !n s.edges_b in
    Some (Kernels.prune g ~terminals (Kernels.ints s.edges_b k) k)

let kmb g ~weight ~terminals =
  match sorted_terminals terminals with
  | [] | [ _ ] -> Some []
  | uniq ->
    let weights = Paths.weight_vector g ~weight in
    let spt_of = Hashtbl.create 16 in
    List.iter
      (fun t -> Hashtbl.replace spt_of t (Paths.dijkstra_vec g ~weights ~source:t))
      uniq;
    let row u dst n out =
      match Hashtbl.find_opt spt_of u with
      | Some spt ->
        for i = 0 to n - 1 do
          out.(i) <- spt.Paths.dist.(dst.(i))
        done
      | None -> invalid_arg "Steiner.kmb: dist outside terminal set"
    in
    let path u v = Paths.path_edges g (Hashtbl.find spt_of u) v in
    kmb_core g ~weight ~terminals:uniq ~row ~path

let kmb_with_metric g ~weight ~terminals ~row ~path =
  match sorted_terminals terminals with
  | [] | [ _ ] -> Some []
  | uniq -> kmb_core g ~weight ~terminals:uniq ~row ~path

let is_steiner_tree g ~terminals edges =
  match List.sort_uniq Int.compare terminals with
  | [] -> edges = []
  | root :: _ as uniq -> (
    match Tree.of_edges g ~root edges with
    | tree -> List.for_all (Tree.mem tree) uniq
    | exception Invalid_argument _ -> false)
