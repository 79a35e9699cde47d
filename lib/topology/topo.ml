type t = {
  name : string;
  graph : Mcgraph.Graph.t;
  coords : (float * float) array option;
  node_names : string array option;
}

let make ?coords ?node_names ~name graph =
  let nn = Mcgraph.Graph.n graph in
  (match coords with
  | Some c when Array.length c <> nn ->
    invalid_arg "Topo.make: coords size mismatch"
  | _ -> ());
  (match node_names with
  | Some names when Array.length names <> nn ->
    invalid_arg "Topo.make: node_names size mismatch"
  | _ -> ());
  { name; graph; coords; node_names }

let n t = Mcgraph.Graph.n t.graph
let m t = Mcgraph.Graph.m t.graph

module Uf = Mcgraph.Union_find

(* a forest over the graph's current edges: one set per component *)
let components g =
  let uf = Uf.create (Mcgraph.Graph.n g) in
  Mcgraph.Graph.iter_edges g (fun _ u v -> ignore (Uf.union uf u v));
  uf

let is_connected t = n t <= 1 || Uf.count (components t.graph) = 1

let node_name t v =
  match t.node_names with
  | Some names when v >= 0 && v < Array.length names -> names.(v)
  | _ -> string_of_int v

let connect_components rng t =
  let g = t.graph in
  let uf = components g in
  while Uf.count uf > 1 do
    (* pick a random node in node 0's component and one outside, link them *)
    let inside = ref [] and outside = ref [] in
    for v = 0 to n t - 1 do
      if Uf.same uf 0 v then inside := v :: !inside
      else outside := v :: !outside
    done;
    let pick l = List.nth l (Rng.int rng (List.length l)) in
    let e = Mcgraph.Graph.add_edge g (pick !inside) (pick !outside) in
    ignore (Uf.union uf (Mcgraph.Graph.edge_u g e) (Mcgraph.Graph.edge_v g e))
  done;
  t
