(* Optimal Steiner trees by Dreyfus-Wagner, O(3^t n + 2^t n^2) for [t]
   terminals (at most 15): the reference for [Steiner.kmb]'s
   approximation bound. *)

open Mcgraph

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
      let uniq_edges = Steiner.dedup_edges g !edges in
      let tree = Mst.kruskal_subset g ~weight ~edges:uniq_edges in
      Some (Steiner.prune g ~terminals:uniq tree)
    end
  end
