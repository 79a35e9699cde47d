(* Minimum spanning forest of an edge-id list: the list goes into the
   domain's scratch and comes back in pick order (see kernels.mli). *)
let kruskal_edges g ~weight edge_ids =
  let s = Kernels.get () in
  let src = Kernels.of_list s.edges_a edge_ids in
  let n = Kernels.kruskal g ~weight src (List.length edge_ids) s.edges_b in
  Kernels.to_list (Kernels.ints s.edges_b n) n

let kruskal g ~weight =
  let ids = List.init (Graph.m g) Fun.id in
  kruskal_edges g ~weight ids

let kruskal_subset g ~weight ~edges = kruskal_edges g ~weight edges

(* Prim on the metric closure, one row of distances per tree point.
   [rest.(0 .. r-1)] holds the indices of the points not yet in the
   tree, in increasing order, so each row asks for exactly the pairs, in
   exactly the order, that a per-pair scan of the points would. *)
let prim_rows ~points ~row =
  let t = Array.length points in
  if t = 0 then Some []
  else begin
    let s = Kernels.get () in
    let rest = Kernels.ints s.i0 t
    and dst = Kernels.ints s.i1 t
    and from = Kernels.ints s.i2 t in
    let best = Kernels.floats s.f0 t and buf = Kernels.floats s.f1 t in
    let r = ref (t - 1) in
    for i = 0 to t - 2 do
      rest.(i) <- i + 1;
      dst.(i) <- points.(i + 1)
    done;
    if t > 1 then row points.(0) dst (t - 1) buf;
    for i = 0 to t - 2 do
      best.(i + 1) <- buf.(i);
      from.(i + 1) <- 0
    done;
    let edges = ref [] in
    let ok = ref true in
    while !ok && !r > 0 do
      (* the first point of least [best], as a strict [<] scan picks *)
      let p = ref 0 in
      for q = 1 to !r - 1 do
        if best.(rest.(q)) < best.(rest.(!p)) then p := q
      done;
      let j = rest.(!p) in
      if best.(j) = infinity then ok := false
      else begin
        edges := (points.(from.(j)), points.(j)) :: !edges;
        Array.blit rest (!p + 1) rest !p (!r - !p - 1);
        decr r;
        if !r > 0 then begin
          for q = 0 to !r - 1 do
            dst.(q) <- points.(rest.(q))
          done;
          row points.(j) dst !r buf;
          for q = 0 to !r - 1 do
            let k = rest.(q) in
            if buf.(q) < best.(k) then begin
              best.(k) <- buf.(q);
              from.(k) <- j
            end
          done
        end
      end
    done;
    if !ok then Some (List.rev !edges) else None
  end

let prim_metric ~points ~dist =
  prim_rows ~points ~row:(fun src dst n out ->
      for i = 0 to n - 1 do
        out.(i) <- dist src dst.(i)
      done)
