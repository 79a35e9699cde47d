type t = {
  graph : Graph.t;
  root_node : int;
  parent_node : int array;     (* -1 for root and non-tree nodes *)
  parent_edge_id : int array;
  depth_of : int array;        (* -1 for non-tree nodes *)
  order : int list;            (* BFS order *)
  edge_ids : int list;
}

let of_edges g ~root edges =
  let nn = Graph.n g in
  if root < 0 || root >= nn then invalid_arg "Tree.of_edges: root out of range";
  let m = Graph.m g in
  let in_set = Bytes.make m '\000' in
  List.iter
    (fun e ->
      if e < 0 || e >= m then invalid_arg "Tree.of_edges: edge id out of range";
      if Bytes.get in_set e <> '\000' then
        invalid_arg "Tree.of_edges: repeated edge";
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
    Graph.iter_neighbors g u (fun v e ->
        if Bytes.get in_set e <> '\000' then begin
          if depth_of.(v) < 0 then begin
            depth_of.(v) <- depth_of.(u) + 1;
            parent_node.(v) <- u;
            parent_edge_id.(v) <- e;
            incr used;
            Queue.add v q
          end
          else if parent_edge_id.(u) <> e then
            (* [v] already reached and [e] is not the edge that discovered
               [u]: the edge set contains a cycle through [u, v]. Each such
               cycle edge is seen from both sides, so guard idempotently. *)
            if parent_edge_id.(v) <> e then
              invalid_arg "Tree.of_edges: cycle in edge set"
        end)
  done;
  if !used <> List.length edges then
    invalid_arg "Tree.of_edges: edge set not connected to root";
  {
    graph = g;
    root_node = root;
    parent_node;
    parent_edge_id;
    depth_of;
    order = List.rev !order;
    edge_ids = edges;
  }

let root t = t.root_node
let mem t v = v >= 0 && v < Array.length t.depth_of && t.depth_of.(v) >= 0
let nodes t = t.order
let size t = List.length t.order
let edges t = t.edge_ids

let check_mem t v name =
  if not (mem t v) then invalid_arg (name ^ ": node not in tree")

let parent t v =
  check_mem t v "Tree.parent";
  t.parent_node.(v)

let parent_edge t v =
  check_mem t v "Tree.parent_edge";
  t.parent_edge_id.(v)

let depth t v =
  check_mem t v "Tree.depth";
  t.depth_of.(v)

let children t v =
  check_mem t v "Tree.children";
  List.filter (fun u -> u <> t.root_node && t.parent_node.(u) = v) t.order

(* number of children per node (0 off the tree), one pass over the
   BFS order *)
let child_counts t =
  let kids = Array.make (Array.length t.depth_of) 0 in
  List.iter
    (fun u ->
      if u <> t.root_node then begin
        let p = t.parent_node.(u) in
        kids.(p) <- kids.(p) + 1
      end)
    t.order;
  kids

let leaves t =
  let kids = child_counts t in
  List.filter (fun u -> kids.(u) = 0) t.order

(* Leaf pruning has a unique fixpoint: a non-root node goes exactly when
   its subtree holds no kept node. BFS order lists every node before its
   descendants, so each node met with no children is an original leaf,
   and the chain cut up from it only reaches ancestors, which the scan
   has already passed. *)
let prune g ~root ~keep edges =
  let t = of_edges g ~root edges in
  let nn = Array.length t.depth_of in
  let kept = Bytes.make nn '\000' in
  List.iter (fun v -> if v >= 0 && v < nn then Bytes.set kept v '\001') keep;
  let kids = child_counts t in
  let cut = Bytes.make (Graph.m g) '\000' in
  let any = ref false in
  List.iter
    (fun u ->
      let v = ref u in
      while !v <> root && Bytes.get kept !v = '\000' && kids.(!v) = 0 do
        let p = t.parent_node.(!v) in
        Bytes.set cut t.parent_edge_id.(!v) '\001';
        any := true;
        kids.(p) <- kids.(p) - 1;
        v := p
      done)
    t.order;
  if not !any then (t, edges)
  else begin
    let edges = List.filter (fun e -> Bytes.get cut e = '\000') edges in
    (of_edges g ~root edges, edges)
  end

let lca t a b =
  check_mem t a "Tree.lca";
  check_mem t b "Tree.lca";
  let rec lift v target_depth =
    if t.depth_of.(v) > target_depth then lift t.parent_node.(v) target_depth
    else v
  in
  let da = t.depth_of.(a) and db = t.depth_of.(b) in
  let a = lift a (min da db) and b = lift b (min da db) in
  let rec meet a b = if a = b then a else meet t.parent_node.(a) t.parent_node.(b) in
  meet a b

let lca_many t = function
  | [] -> invalid_arg "Tree.lca_many: empty list"
  | v :: rest -> List.fold_left (lca t) v rest

let is_ancestor t a ~descendant =
  check_mem t a "Tree.is_ancestor";
  check_mem t descendant "Tree.is_ancestor";
  lca t a descendant = a

let in_subtree t ~root_of_subtree v =
  mem t v && mem t root_of_subtree && is_ancestor t root_of_subtree ~descendant:v

let path_up t v ~ancestor =
  check_mem t v "Tree.path_up";
  check_mem t ancestor "Tree.path_up";
  let rec walk v acc =
    if v = ancestor then List.rev acc
    else if v = t.root_node then invalid_arg "Tree.path_up: not an ancestor"
    else walk t.parent_node.(v) (t.parent_edge_id.(v) :: acc)
  in
  walk v []

let path_between t a b =
  let anc = lca t a b in
  path_up t a ~ancestor:anc @ List.rev (path_up t b ~ancestor:anc)
