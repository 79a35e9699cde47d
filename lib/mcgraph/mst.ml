let weight_of ~weight edges =
  List.fold_left (fun acc e -> acc +. weight e) 0.0 edges

(* A stable sort of edge indices by weight: equal weights keep their
   input order, and infinite (pruned) edges sort last and are skipped. *)
let kruskal_edges g ~weight edge_ids =
  let ids = Array.of_list edge_ids in
  let ws = Array.map weight ids in
  let order = Array.init (Array.length ids) Fun.id in
  Array.stable_sort (fun a b -> Float.compare ws.(a) ws.(b)) order;
  let uf = Union_find.create (Graph.n g) in
  let picked = ref [] in
  Array.iter
    (fun i ->
      let e = ids.(i) in
      let u, v = Graph.endpoints g e in
      if ws.(i) <> infinity && Union_find.union uf u v then
        picked := e :: !picked)
    order;
  List.rev !picked

let kruskal g ~weight =
  let ids = List.init (Graph.m g) Fun.id in
  kruskal_edges g ~weight ids

let kruskal_subset g ~weight ~edges = kruskal_edges g ~weight edges

let prim g ~weight ~root =
  let nn = Graph.n g in
  let in_tree = Array.make nn false in
  let best_edge = Array.make nn (-1) in
  let heap = Heap.create nn in
  let picked = ref [] in
  in_tree.(root) <- true;
  let relax u =
    Graph.iter_neighbors g u (fun v e ->
        let w = weight e in
        if (not in_tree.(v)) && w < infinity then
          match Heap.priority heap v with
          | Some p when p <= w -> ()
          | _ ->
            Heap.insert_or_decrease heap ~key:v w;
            best_edge.(v) <- e)
  in
  relax root;
  let rec drain () =
    match Heap.pop_min heap with
    | None -> ()
    | Some (v, _) ->
      if not in_tree.(v) then begin
        in_tree.(v) <- true;
        picked := best_edge.(v) :: !picked;
        relax v
      end;
      drain ()
  in
  drain ();
  List.rev !picked

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
