(* One rooting per domain, in node- and edge-indexed arrays grown to the
   largest graph the domain has rooted on. A node or edge belongs to the
   current rooting iff its mark holds the current generation, so a new
   rooting clears nothing. *)
type s = {
  mutable gen : int;
  mutable size : int;          (* nodes reached, 0 after a failed rooting *)
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
        size = 0;
        mark = [||];
        up = [||];
        pedge = [||];
        depth = [||];
        emark = [||];
        queue = [||];
      })

(* a failed rooting leaves no rooting behind: its marks go stale *)
let fail s what =
  s.gen <- s.gen + 1;
  s.size <- 0;
  invalid_arg ("Tree.root: " ^ what)

let root g ~root edges =
  let nn = Graph.n g and m = Graph.m g in
  let s = Domain.DLS.get key in
  if root < 0 || root >= nn then fail s "root out of range";
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
      if e < 0 || e >= m then fail s "edge id out of range";
      if s.emark.(e) = gen then fail s "repeated edge";
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
            fail s "cycle in edge set"
        end
    done
  done;
  (* each discovery uses a distinct listed edge, so a tree reaches
     exactly one node more than it has edges *)
  if !tail <> !k + 1 then fail s "edge set not connected to root";
  s.size <- !tail

(* marks start at 0 and the first rooting is generation 1 *)
let in_tree s v = v >= 0 && v < Array.length s.mark && s.mark.(v) = s.gen

let check s v name = if not (in_tree s v) then invalid_arg (name ^ ": node not in tree")

let mem v = in_tree (Domain.DLS.get key) v

let nodes () =
  let s = Domain.DLS.get key in
  List.init s.size (Array.get s.queue)

let parent v =
  let s = Domain.DLS.get key in
  check s v "Tree.parent";
  s.up.(v)

let parent_edge v =
  let s = Domain.DLS.get key in
  check s v "Tree.parent_edge";
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
    check s d "Tree.lca";
    lca_fold s (lca2 s a d) rest

let lca v others =
  let s = Domain.DLS.get key in
  check s v "Tree.lca";
  lca_fold s v others

(* edges from [x] up to [anc], in travel order, ahead of [tail]; raises
   when the climb passes the root without meeting [anc] *)
let rec climb s x anc tail =
  if x = anc then tail
  else if s.up.(x) < 0 then invalid_arg "Tree.path_up: not an ancestor"
  else s.pedge.(x) :: climb s s.up.(x) anc tail

(* edges from [anc] down to [x], in travel order, ahead of [acc]; [anc]
   must be an ancestor of [x] *)
let rec descend s x anc acc =
  if x = anc then acc else descend s s.up.(x) anc (s.pedge.(x) :: acc)

let path_up v ~ancestor =
  let s = Domain.DLS.get key in
  check s v "Tree.path_up";
  check s ancestor "Tree.path_up";
  climb s v ancestor []

let path_between a b =
  let s = Domain.DLS.get key in
  check s a "Tree.path_between";
  check s b "Tree.path_between";
  let anc = lca2 s a b in
  climb s a anc (descend s b anc [])
