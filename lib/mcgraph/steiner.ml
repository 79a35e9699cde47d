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
  Kernels.prune g [||] ~terminals:(Array.of_list terminals) src (List.length edges)

(* terminals sorted with duplicates removed; an array already in that
   form (as callers pricing many subsets pass it) is returned as is *)
let sorted_terminals points =
  let ok = ref true in
  for i = 1 to Array.length points - 1 do
    if points.(i - 1) >= points.(i) then ok := false
  done;
  if !ok then points
  else Array.of_list (List.sort_uniq Int.compare (Array.to_list points))

(* Shared core of both KMB variants: given sorted unique terminals and a
   metric closure read by rows, build an MST over the closure, expand
   its edges into shortest paths (first occurrences kept, in order,
   straight into the scratch), re-run an MST on the expanded subgraph
   and prune non-terminal leaves. Edge [m + i] is spoke [i]. *)
let kmb_core g ~spokes ~weights ~spoke_weights ~points ~row ~path =
  let np = Kernels.prim ~points ~row in
  if np < 0 then None
  else begin
    let s = Kernels.get () in
    let m = Graph.m g in
    Kernels.reset_keys s ~size:(m + Array.length spokes);
    let n = ref 0 in
    let emit e =
      if first_sight s e then begin
        Kernels.push s.edges_a !n e;
        incr n
      end
    in
    let pairs = Kernels.ints s.pairs (2 * np) in
    for p = 0 to np - 1 do
      if not (path pairs.(2 * p) pairs.((2 * p) + 1) emit) then
        invalid_arg "Steiner.kmb: metric/path disagree"
    done;
    let n = !n in
    let sub = Kernels.ints s.edges_a n in
    let ws = Kernels.floats s.weights_a n in
    for i = 0 to n - 1 do
      let e = sub.(i) in
      ws.(i) <- (if e < m then weights.(e) else spoke_weights.(e - m))
    done;
    let k = Kernels.kruskal g spokes ws sub n s.edges_b in
    Some (Kernels.prune g spokes ~terminals:points (Kernels.ints s.edges_b k) k)
  end

let kmb g ~weight ~terminals =
  match List.sort_uniq Int.compare terminals with
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
    let path u v emit = Paths.iter_path (Hashtbl.find spt_of u) v emit in
    kmb_core g ~spokes:[||] ~weights ~spoke_weights:[||] ~points:(Array.of_list uniq)
      ~row ~path

(* fewer than two terminals still go through Prim, which then picks
   nothing and leaves [closure_bottleneck] at [neg_infinity] *)
let kmb_with_metric g ~spokes ~weights ~spoke_weights ~terminals ~row ~path =
  kmb_core g ~spokes ~weights ~spoke_weights ~points:(sorted_terminals terminals)
    ~row ~path

let closure_bottleneck () = (Kernels.get ()).bottleneck.(0)

let is_steiner_tree g ~terminals edges =
  match List.sort_uniq Int.compare terminals with
  | [] -> edges = []
  | root :: _ as uniq -> (
    match Tree.root g ~root edges with
    | () -> List.for_all Tree.mem uniq
    | exception Invalid_argument _ -> false)
