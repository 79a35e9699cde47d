(* Minimum spanning forest of an edge-id list: the list and its weights
   go into the domain's scratch and the forest comes back in pick order
   (see kernels.mli). *)
let kruskal_edges g ~weight edge_ids =
  let s = Kernels.get () in
  let n = List.length edge_ids in
  let src = Kernels.of_list s.edges_a edge_ids in
  let ws = Kernels.floats s.weights_a n in
  for i = 0 to n - 1 do
    ws.(i) <- weight src.(i)
  done;
  let n = Kernels.kruskal g [||] ws src n s.edges_b in
  Kernels.to_list (Kernels.ints s.edges_b n) n

let kruskal g ~weight =
  let ids = List.init (Graph.m g) Fun.id in
  kruskal_edges g ~weight ids

let kruskal_subset g ~weight ~edges = kruskal_edges g ~weight edges

(* the pairs Prim left in the scratch, as a list *)
let prim_rows ~points ~row =
  let np = Kernels.prim ~points ~row in
  if np < 0 then None
  else begin
    let a = Kernels.ints (Kernels.get ()).pairs (2 * np) in
    Some (List.init np (fun p -> (a.(2 * p), a.((2 * p) + 1))))
  end

let prim_metric ~points ~dist =
  prim_rows ~points ~row:(fun src dst n out ->
      for i = 0 to n - 1 do
        out.(i) <- dist src dst.(i)
      done)
