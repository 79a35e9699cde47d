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

(* Dreyfus–Wagner dynamic program. [dp.(mask).(v)] is the minimum cost of
   a tree spanning the terminals selected by [mask] plus node [v]. Masks
   are processed in increasing popcount order: first merge two sub-trees
   at [v], then propagate along shortest paths (a Dijkstra over the dp
   row, here done with the dense metric since test instances are small).
   Choices are recorded for tree reconstruction. *)
type dw_choice =
  | Dw_leaf
  | Dw_merge of int                  (* submask kept at the same node *)
  | Dw_move of int                   (* predecessor node, same mask *)

let exact g ~weight ~terminals =
  let uniq = List.sort_uniq Int.compare terminals in
  let t = List.length uniq in
  if t > 15 then invalid_arg "Steiner.exact: too many terminals";
  if t <= 1 then Some []
  else begin
    let nn = Graph.n g in
    let terms = Array.of_list uniq in
    (* only distances/paths from the ≤15 terminals are consulted, so run
       one Dijkstra per terminal rather than eager all-pairs *)
    let weights = Paths.weight_vector g ~weight in
    let term_spt =
      Array.map (fun t -> Paths.dijkstra_vec g ~weights ~source:t) terms
    in
    let full = (1 lsl t) - 1 in
    let dp = Array.make_matrix (full + 1) nn infinity in
    let choice = Array.make_matrix (full + 1) nn Dw_leaf in
    for i = 0 to t - 1 do
      for v = 0 to nn - 1 do
        dp.(1 lsl i).(v) <- term_spt.(i).Paths.dist.(v);
        choice.(1 lsl i).(v) <- Dw_leaf
      done
    done;
    let masks = List.init full (fun i -> i + 1) in
    let by_popcount =
      List.sort
        (fun a b ->
          let pc x =
            let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
            go x 0
          in
          Int.compare (pc a) (pc b))
        masks
    in
    List.iter
      (fun mask ->
        if mask land (mask - 1) <> 0 then begin
          (* merge step: combine two disjoint submasks at a common node *)
          for v = 0 to nn - 1 do
            let sub = ref ((mask - 1) land mask) in
            while !sub > 0 do
              if !sub < mask - !sub then begin
                let c = dp.(!sub).(v) +. dp.(mask - !sub).(v) in
                if c < dp.(mask).(v) then begin
                  dp.(mask).(v) <- c;
                  choice.(mask).(v) <- Dw_merge !sub
                end
              end;
              sub := (!sub - 1) land mask
            done
          done;
          (* move step: Bellman–Ford-style relaxation over the metric *)
          let changed = ref true in
          while !changed do
            changed := false;
            Graph.iter_edges g (fun e a b ->
                let w = weight e in
                if w < infinity then begin
                  if dp.(mask).(a) +. w < dp.(mask).(b) then begin
                    dp.(mask).(b) <- dp.(mask).(a) +. w;
                    choice.(mask).(b) <- Dw_move a;
                    changed := true
                  end;
                  if dp.(mask).(b) +. w < dp.(mask).(a) then begin
                    dp.(mask).(a) <- dp.(mask).(b) +. w;
                    choice.(mask).(a) <- Dw_move b;
                    changed := true
                  end
                end)
          done
        end)
      by_popcount;
    (* best attachment node for the full terminal set *)
    let best = ref (-1) in
    for v = 0 to nn - 1 do
      if !best < 0 || dp.(full).(v) < dp.(full).(!best) then best := v
    done;
    if dp.(full).(!best) = infinity then None
    else begin
      (* reconstruct the edge multiset; shortest-path legs come from APSP *)
      let edges = ref [] in
      let rec rebuild mask v =
        match choice.(mask).(v) with
        | Dw_leaf ->
          let i =
            let rec find i = if mask = 1 lsl i then i else find (i + 1) in
            find 0
          in
          (match Paths.path_edges g term_spt.(i) v with
          | Some path -> edges := path @ !edges
          | None -> assert false)
        | Dw_merge sub ->
          rebuild sub v;
          rebuild (mask - sub) v
        | Dw_move u ->
          (match Graph.find_edge g u v with
          | Some e ->
            (* several parallel edges may join u and v; pick the cheapest *)
            let e =
              List.fold_left
                (fun acc (w', e') -> if w' = v && weight e' < weight acc then e' else acc)
                e
                (Graph.neighbors g u)
            in
            edges := e :: !edges
          | None -> assert false);
          rebuild mask u
      in
      rebuild full !best;
      (* Distinct shortest-path legs may overlap and close cycles; an MST
         of the collected subgraph restores a tree without raising the
         cost above the (optimal) dp value. *)
      let uniq_edges = dedup_edges g !edges in
      let tree = Mst.kruskal_subset g ~weight ~edges:uniq_edges in
      Some (prune g ~terminals:uniq tree)
    end
  end
