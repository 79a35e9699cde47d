(* A rooted tree as a value: three node-indexed arrays filled by a
   [Queue] BFS over [iter_neighbors], and the BFS order as a list. It
   answers every query [Mcgraph.Tree] answers about its domain's
   rooting, raising the same messages in the same order, and any number
   of them can be held at once. *)

module G = Mcgraph.Graph

type t = {
  root_node : int;
  parent_node : int array;
  parent_edge_id : int array;
  depth_of : int array;
  order : int list;
}

let of_edges g ~root edges =
  let nn = G.n g in
  if root < 0 || root >= nn then invalid_arg "Tree.root: root out of range";
  let m = G.m g in
  let in_set = Bytes.make m '\000' in
  List.iter
    (fun e ->
      if e < 0 || e >= m then invalid_arg "Tree.root: edge id out of range";
      if Bytes.get in_set e <> '\000' then invalid_arg "Tree.root: repeated edge";
      Bytes.set in_set e '\001')
    edges;
  let parent_node = Array.make nn (-1) in
  let parent_edge_id = Array.make nn (-1) in
  let depth_of = Array.make nn (-1) in
  let order = ref [] in
  let used = ref 0 in
  let q = Queue.create () in
  depth_of.(root) <- 0;
  Queue.add root q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    G.iter_neighbors g u (fun v e ->
        if Bytes.get in_set e <> '\000' then begin
          if depth_of.(v) < 0 then begin
            depth_of.(v) <- depth_of.(u) + 1;
            parent_node.(v) <- u;
            parent_edge_id.(v) <- e;
            incr used;
            Queue.add v q
          end
          else if parent_edge_id.(u) <> e then
            if parent_edge_id.(v) <> e then invalid_arg "Tree.root: cycle in edge set"
        end)
  done;
  if !used <> List.length edges then
    invalid_arg "Tree.root: edge set not connected to root";
  { root_node = root; parent_node; parent_edge_id; depth_of; order = List.rev !order }

let mem t v = v >= 0 && v < Array.length t.depth_of && t.depth_of.(v) >= 0
let nodes t = t.order

let check_mem t v name =
  if not (mem t v) then invalid_arg (name ^ ": node not in tree")

let parent t v =
  check_mem t v "Tree.parent";
  t.parent_node.(v)

let parent_edge t v =
  check_mem t v "Tree.parent_edge";
  t.parent_edge_id.(v)

(* not a [Mcgraph.Tree] query: the properties read depths here *)
let depth t v =
  check_mem t v "Tree.depth";
  t.depth_of.(v)

let lca2 t a b =
  let rec lift v target_depth =
    if t.depth_of.(v) > target_depth then lift t.parent_node.(v) target_depth
    else v
  in
  let da = t.depth_of.(a) and db = t.depth_of.(b) in
  let a = lift a (min da db) and b = lift b (min da db) in
  let rec meet a b = if a = b then a else meet t.parent_node.(a) t.parent_node.(b) in
  meet a b

let lca t v others =
  check_mem t v "Tree.lca";
  List.fold_left
    (fun a d ->
      check_mem t d "Tree.lca";
      lca2 t a d)
    v others

let walk_up t v ancestor =
  let rec walk v acc =
    if v = ancestor then List.rev acc
    else if v = t.root_node then invalid_arg "Tree.path_up: not an ancestor"
    else walk t.parent_node.(v) (t.parent_edge_id.(v) :: acc)
  in
  walk v []

let path_up t v ~ancestor =
  check_mem t v "Tree.path_up";
  check_mem t ancestor "Tree.path_up";
  walk_up t v ancestor

let path_between t a b =
  check_mem t a "Tree.path_between";
  check_mem t b "Tree.path_between";
  let anc = lca2 t a b in
  walk_up t a anc @ List.rev (walk_up t b anc)

(* [Repair]'s leaf pruning as a loop: drop every leaf outside
   [keep_nodes] (never the root), rebuild, and repeat until no leaf can
   go. [Mcgraph.Steiner.prune] over [root :: keep_nodes], then
   [Mcgraph.Tree.root] on what it keeps, as [Repair] trims, must give
   the same rooted tree and the same edge list, order included. *)
let prune g ~root ~keep_nodes edges =
  let rec go edges =
    let t = of_edges g ~root edges in
    let leaves =
      List.filter
        (fun v -> not (List.exists (fun c -> t.parent_node.(c) = v) t.order))
        t.order
    in
    let removable =
      List.filter (fun v -> v <> root && not (List.mem v keep_nodes)) leaves
    in
    if removable = [] then (t, edges)
    else begin
      let drop = List.map (fun v -> t.parent_edge_id.(v)) removable in
      go (List.filter (fun e -> not (List.mem e drop)) edges)
    end
  in
  go edges
