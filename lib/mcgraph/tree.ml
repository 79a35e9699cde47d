(* A rooted tree keeps one node-indexed array, [slot], and four arrays
   indexed by BFS slot and sized to the tree: slot 0 is the root, and a
   parent's slot is always below its children's. *)
type t = {
  slot : int array;            (* node -> BFS slot, -1 for non-tree nodes *)
  order : int array;           (* slot -> node, BFS order *)
  up : int array;              (* slot -> parent's slot, -1 at the root *)
  pedge : int array;           (* slot -> edge to the parent, -1 at the root *)
  depth_at : int array;        (* slot -> depth *)
  edge_ids : int list;
}

let of_edges g ~root edges =
  let nn = Graph.n g in
  if root < 0 || root >= nn then invalid_arg "Tree.of_edges: root out of range";
  let m = Graph.m g in
  let in_set = Bytes.make m '\000' in
  let k =
    List.fold_left
      (fun k e ->
        if e < 0 || e >= m then invalid_arg "Tree.of_edges: edge id out of range";
        if Bytes.get in_set e <> '\000' then
          invalid_arg "Tree.of_edges: repeated edge";
        Bytes.set in_set e '\001';
        k + 1)
      0 edges
  in
  (* each discovery uses a distinct listed edge, so at most k + 1 nodes
     get a slot; [order] doubles as the BFS queue *)
  let slot = Array.make nn (-1) in
  let order = Array.make (k + 1) root in
  let up = Array.make (k + 1) (-1) in
  let pedge = Array.make (k + 1) (-1) in
  let depth_at = Array.make (k + 1) 0 in
  slot.(root) <- 0;
  let tail = ref 1 in
  for head = 0 to k do
    (* [head] reaching [!tail] means the search ran dry *)
    if head < !tail then begin
      let rest = ref (Graph.neighbors g order.(head)) in
      while !rest != [] do
        match !rest with
        | [] -> ()
        | (v, e) :: tl ->
          rest := tl;
          if Bytes.get in_set e <> '\000' then begin
            let sv = slot.(v) in
            if sv < 0 then begin
              let i = !tail in
              slot.(v) <- i;
              order.(i) <- v;
              up.(i) <- head;
              pedge.(i) <- e;
              depth_at.(i) <- depth_at.(head) + 1;
              tail := i + 1
            end
            else if pedge.(head) <> e then
              (* [v] already reached and [e] is not the edge that
                 discovered the node at [head]: the edge set contains a
                 cycle through both. Each such cycle edge is seen from
                 both sides, so guard idempotently. *)
              if pedge.(sv) <> e then invalid_arg "Tree.of_edges: cycle in edge set"
          end
      done
    end
  done;
  if !tail <> k + 1 then
    invalid_arg "Tree.of_edges: edge set not connected to root";
  { slot; order; up; pedge; depth_at; edge_ids = edges }

let root t = t.order.(0)
let mem t v = v >= 0 && v < Array.length t.slot && t.slot.(v) >= 0
let nodes t = Array.to_list t.order
let size t = Array.length t.order
let edges t = t.edge_ids

(* [v]'s slot, raising [name ^ ": node not in tree"] off the tree *)
let slot_of t v name =
  if not (mem t v) then invalid_arg (name ^ ": node not in tree");
  t.slot.(v)

let node_at t i = if i < 0 then -1 else t.order.(i)

let parent t v = node_at t t.up.(slot_of t v "Tree.parent")
let parent_edge t v = t.pedge.(slot_of t v "Tree.parent_edge")
let depth t v = t.depth_at.(slot_of t v "Tree.depth")

(* nodes whose slots satisfy [keep], in BFS order *)
let nodes_where t keep =
  let acc = ref [] in
  for i = Array.length t.order - 1 downto 0 do
    if keep i then acc := t.order.(i) :: !acc
  done;
  !acc

let children t v =
  let s = slot_of t v "Tree.children" in
  nodes_where t (fun i -> t.up.(i) = s)

(* number of children per slot, one pass over the parents *)
let child_counts t =
  let kids = Array.make (Array.length t.order) 0 in
  for i = 1 to Array.length t.order - 1 do
    kids.(t.up.(i)) <- kids.(t.up.(i)) + 1
  done;
  kids

let leaves t =
  let kids = child_counts t in
  nodes_where t (fun i -> kids.(i) = 0)

(* Parents sit at lower slots than their children, so of two distinct
   slots the higher one is never the other's ancestor and can climb. *)
let lca_slot t a b =
  let a = ref a and b = ref b in
  while !a <> !b do
    if !a > !b then a := t.up.(!a) else b := t.up.(!b)
  done;
  !a

let lca t a b =
  let sa = slot_of t a "Tree.lca" in
  let sb = slot_of t b "Tree.lca" in
  t.order.(lca_slot t sa sb)

let lca_many t = function
  | [] -> invalid_arg "Tree.lca_many: empty list"
  | v :: rest -> List.fold_left (lca t) v rest

(* edges from slot [i] up to slot [anc], in travel order, ahead of
   [tail]; raises when the climb passes the root without meeting [anc] *)
let rec climb t i anc tail =
  if i = anc then tail
  else if i = 0 then invalid_arg "Tree.path_up: not an ancestor"
  else t.pedge.(i) :: climb t t.up.(i) anc tail

(* edges from slot [anc] down to slot [i], in travel order, ahead of
   [acc]; [anc] must be an ancestor of [i] *)
let rec descend t i anc acc =
  if i = anc then acc else descend t t.up.(i) anc (t.pedge.(i) :: acc)

let path_up t v ~ancestor =
  let sv = slot_of t v "Tree.path_up" in
  let sa = slot_of t ancestor "Tree.path_up" in
  climb t sv sa []

let path_between t a b =
  let sa = slot_of t a "Tree.lca" in
  let sb = slot_of t b "Tree.lca" in
  let anc = lca_slot t sa sb in
  climb t sa anc (descend t sb anc [])
