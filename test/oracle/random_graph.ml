(* Random graph families for property checks: G(n, p) made connected
   by [Topo.connect_components], G(n, m) as a random spanning tree plus
   [m - (n - 1)] extra non-parallel edges, and random labelled trees. *)

open Topology

let erdos_renyi ?name rng ~n ~p =
  if n < 1 then invalid_arg "Random_graph.erdos_renyi: empty graph";
  let g = Mcgraph.Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.float rng 1.0 < p then ignore (Mcgraph.Graph.add_edge g i j)
    done
  done;
  let name = Option.value name ~default:(Printf.sprintf "gnp-%d" n) in
  Topo.connect_components rng (Topo.make ~name g)

let random_tree ?name rng ~n =
  if n < 1 then invalid_arg "Random_graph.random_tree: empty graph";
  let g = Mcgraph.Graph.create n in
  for v = 1 to n - 1 do
    ignore (Mcgraph.Graph.add_edge g v (Rng.int rng v))
  done;
  let name = Option.value name ~default:(Printf.sprintf "tree-%d" n) in
  Topo.make ~name g

let gnm ?name rng ~n ~m =
  let t = random_tree rng ~n in
  let g = t.Topo.graph in
  let target = max m (n - 1) in
  let guard = ref 0 in
  while Mcgraph.Graph.m g < target && !guard < 100 * target do
    incr guard;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Mcgraph.Graph.mem_edge g u v) then
      ignore (Mcgraph.Graph.add_edge g u v)
  done;
  let name = Option.value name ~default:(Printf.sprintf "gnm-%d-%d" n target) in
  Topo.make ~name g
