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

(* One rooting per domain, in node- and edge-indexed arrays grown to the
   largest graph the domain has rooted on. A node or edge belongs to the
   current rooting iff its mark holds the current generation, so a new
   rooting clears nothing. *)
module Scratch = struct
  type s = {
    mutable gen : int;
    mutable mark : int array;    (* node -> generation that reached it *)
    mutable up : int array;      (* node -> parent node, -1 at the root *)
    mutable pedge : int array;   (* node -> edge to the parent, -1 at the root *)
    mutable depth : int array;   (* node -> depth *)
    mutable emark : int array;   (* edge -> generation that listed it *)
    mutable queue : int array;   (* BFS order *)
  }

  let key =
    Domain.DLS.new_key (fun () ->
        {
          gen = 0;
          mark = [||];
          up = [||];
          pedge = [||];
          depth = [||];
          emark = [||];
          queue = [||];
        })

  (* a failed rooting leaves no rooting behind: its marks go stale *)
  let fail s name what =
    s.gen <- s.gen + 1;
    invalid_arg (name ^ ": " ^ what)

  (* roots [edges] and returns the tree's node count; errors are
     reported under [name] *)
  let root_as name g ~root edges =
    let nn = Graph.n g and m = Graph.m g in
    let s = Domain.DLS.get key in
    if root < 0 || root >= nn then fail s name "root out of range";
    if Array.length s.mark < nn then begin
      s.mark <- Array.make nn 0;
      s.up <- Array.make nn (-1);
      s.pedge <- Array.make nn (-1);
      s.depth <- Array.make nn 0;
      s.queue <- Array.make nn 0
    end;
    if Array.length s.emark < m then s.emark <- Array.make m 0;
    s.gen <- s.gen + 1;
    let gen = s.gen in
    let k = ref 0 and rest = ref edges in
    while !rest != [] do
      match !rest with
      | [] -> ()
      | e :: tl ->
        if e < 0 || e >= m then fail s name "edge id out of range";
        if s.emark.(e) = gen then fail s name "repeated edge";
        s.emark.(e) <- gen;
        incr k;
        rest := tl
    done;
    s.mark.(root) <- gen;
    s.up.(root) <- -1;
    s.pedge.(root) <- -1;
    s.depth.(root) <- 0;
    s.queue.(0) <- root;
    let tail = ref 1 and head = ref 0 in
    while !head < !tail do
      let x = s.queue.(!head) in
      incr head;
      let rest = ref (Graph.neighbors g x) in
      while !rest != [] do
        match !rest with
        | [] -> ()
        | (v, e) :: tl ->
          rest := tl;
          if s.emark.(e) = gen then begin
            if s.mark.(v) <> gen then begin
              s.mark.(v) <- gen;
              s.up.(v) <- x;
              s.pedge.(v) <- e;
              s.depth.(v) <- s.depth.(x) + 1;
              s.queue.(!tail) <- v;
              incr tail
            end
            else if s.pedge.(x) <> e && s.pedge.(v) <> e then
              (* [v] already reached and [e] is not the edge that
                 discovered [x] or [v]: the edge set contains a cycle
                 through both *)
              fail s name "cycle in edge set"
          end
      done
    done;
    (* each discovery uses a distinct listed edge, so a tree reaches
       exactly one node more than it has edges *)
    if !tail <> !k + 1 then fail s name "edge set not connected to root";
    !tail

  let root g ~root edges = ignore (root_as "Tree.Scratch.root" g ~root edges)

  (* marks start at 0 and the first rooting is generation 1 *)
  let in_tree s v = v >= 0 && v < Array.length s.mark && s.mark.(v) = s.gen

  let check s v name = if not (in_tree s v) then invalid_arg (name ^ ": node not in tree")

  let parent v =
    let s = Domain.DLS.get key in
    check s v "Tree.Scratch.parent";
    s.up.(v)

  let parent_edge v =
    let s = Domain.DLS.get key in
    check s v "Tree.Scratch.parent_edge";
    s.pedge.(v)

  (* the deeper node climbs; at equal depth both do *)
  let rec lca2 s a b =
    if a = b then a
    else
      let da = s.depth.(a) and db = s.depth.(b) in
      if da > db then lca2 s s.up.(a) b
      else if db > da then lca2 s a s.up.(b)
      else lca2 s s.up.(a) s.up.(b)

  let rec lca_fold s a = function
    | [] -> a
    | d :: rest ->
      check s d "Tree.Scratch.lca";
      lca_fold s (lca2 s a d) rest

  let lca v others =
    let s = Domain.DLS.get key in
    check s v "Tree.Scratch.lca";
    lca_fold s v others
end

(* the BFS runs in the domain's scratch; the tree copies its order out *)
let of_edges g ~root edges =
  let size = Scratch.root_as "Tree.of_edges" g ~root edges in
  let s = Domain.DLS.get Scratch.key in
  let slot = Array.make (Graph.n g) (-1) in
  let order = Array.sub s.Scratch.queue 0 size in
  let up = Array.make size (-1) in
  let pedge = Array.make size (-1) in
  let depth_at = Array.make size 0 in
  for i = 0 to size - 1 do
    slot.(order.(i)) <- i
  done;
  for i = 1 to size - 1 do
    let v = order.(i) in
    up.(i) <- slot.(s.Scratch.up.(v));
    pedge.(i) <- s.Scratch.pedge.(v);
    depth_at.(i) <- s.Scratch.depth.(v)
  done;
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
