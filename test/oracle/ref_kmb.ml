(* The list- and Hashtbl-based KMB kernels that the array kernels of
   [Mcgraph.Kernels] replaced: [Mst.kruskal*], [Mst.prim_rows],
   [Steiner.dedup_edges], [Steiner.prune] and every KMB run built on them
   must give these kernels' edges, in their order, bit for bit. *)

module G = Mcgraph.Graph

(* Kruskal as it stood before the array kernel: a [List.sort] (stable,
   so equal weights keep their input order) over a fresh union-find *)
let kruskal_edges g ~weight edge_ids =
  let weighted =
    List.filter_map
      (fun e ->
        let w = weight e in
        if w = infinity then None else Some (w, e))
      edge_ids
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) weighted in
  let uf = Mcgraph.Union_find.create (G.n g) in
  List.map snd
    (List.filter
       (fun (_, e) ->
         let u, v = G.endpoints g e in
         Mcgraph.Union_find.union uf u v)
       sorted)

(* Prim on the metric closure as it stood before the row kernel: one
   [dist] call per pair, the first point of least [best] picked by a
   strict [<] scan. [Mst.prim_rows] must ask for the same pairs in the
   same order and return the same edges. *)
let prim_metric ~points ~dist =
  let t = Array.length points in
  if t = 0 then Some []
  else begin
    let in_tree = Array.make t false in
    let best = Array.make t infinity in
    let best_from = Array.make t (-1) in
    in_tree.(0) <- true;
    for j = 1 to t - 1 do
      best.(j) <- dist points.(0) points.(j);
      best_from.(j) <- 0
    done;
    let edges = ref [] in
    let ok = ref true in
    for _ = 1 to t - 1 do
      if !ok then begin
        let pick = ref (-1) in
        for j = 0 to t - 1 do
          if (not in_tree.(j)) && (!pick < 0 || best.(j) < best.(!pick)) then
            pick := j
        done;
        if !pick < 0 || best.(!pick) = infinity then ok := false
        else begin
          let j = !pick in
          in_tree.(j) <- true;
          edges := (points.(best_from.(j)), points.(j)) :: !edges;
          for k = 0 to t - 1 do
            if not in_tree.(k) then begin
              let w = dist points.(j) points.(k) in
              if w < best.(k) then begin
                best.(k) <- w;
                best_from.(k) <- j
              end
            end
          done
        end
      end
    done;
    if !ok then Some (List.rev !edges) else None
  end

let dedup_edges edges =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e then false
      else begin
        Hashtbl.add seen e ();
        true
      end)
    edges

let prune g ~terminals edges =
  let is_terminal = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace is_terminal t ()) terminals;
  let degree = Hashtbl.create 16 in
  let bump v d =
    let cur = Option.value (Hashtbl.find_opt degree v) ~default:0 in
    Hashtbl.replace degree v (cur + d)
  in
  let live = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace live e ();
      let u, v = G.endpoints g e in
      bump u 1;
      bump v 1)
    edges;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun e () ->
        let u, v = G.endpoints g e in
        let removable x =
          Hashtbl.find degree x = 1 && not (Hashtbl.mem is_terminal x)
        in
        if removable u || removable v then begin
          Hashtbl.remove live e;
          bump u (-1);
          bump v (-1);
          changed := true
        end)
      (Hashtbl.copy live)
  done;
  List.filter (Hashtbl.mem live) edges
