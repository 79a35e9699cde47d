(* Shared helpers for the test suites. *)

module G = Mcgraph.Graph
module Rng = Topology.Rng

let qtest ?(count = 100) ?rand name gen prop =
  QCheck_alcotest.to_alcotest ?rand (QCheck.Test.make ~count ~name gen prop)

(* A connected random graph from a seed: n in [lo, hi], extra edges over a
   random spanning tree. Returns the graph and the rng used (advanced), so
   callers can draw more randomness deterministically. *)
let random_connected_graph seed ~lo ~hi =
  let rng = Rng.create seed in
  let n = Rng.int_range rng lo hi in
  let g = G.create n in
  for v = 1 to n - 1 do
    ignore (G.add_edge g v (Rng.int rng v))
  done;
  let extra = Rng.int rng (2 * n) in
  let added = ref 0 and guard = ref 0 in
  while !added < extra && !guard < 20 * extra + 20 do
    incr guard;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (G.mem_edge g u v) then begin
      ignore (G.add_edge g u v);
      incr added
    end
  done;
  (g, rng)

(* random positive weights for a graph's edges *)
let random_weights rng g =
  Array.init (G.m g) (fun _ -> Rng.float_range rng 0.1 10.0)

let weight_fn w e = w.(e)

(* a small random SDN network for end-to-end properties *)
let random_network seed ~lo ~hi =
  let rng = Rng.create seed in
  let n = Rng.int_range rng lo hi in
  let topo = Topology.Waxman.generate ~alpha:0.5 ~beta:0.4 rng ~n in
  let net = Sdn.Network.make_random_servers ~fraction:0.2 ~rng topo in
  (net, rng)

let random_request rng net ~id = Workload.Gen.request rng net ~id

(* an Online_CP pricing over a fresh window: exponential mode and the
   network's default params unless given. One call per admit gives each
   request a private engine — the naive reference the shared-window
   runs are compared against. *)
let cp_pricing ?(mode = `Exponential) ?params ?avail net =
  let params =
    match params with
    | Some p -> p
    | None -> Nfv_multicast.Online_cp.default_params net
  in
  Nfv_multicast.Online_cp.pricing ?avail ~mode ~params
    (Nfv_multicast.Sp_window.create net)

(* Algorithm 1's base-edge price as a private engine, built here rather
   than through Appro_multi so the oracles that use it stay independent
   of the library's constructor: [b_k·c_e], and [infinity] on every link
   [keep] rejects. *)
let offline_engine ?(keep = fun _ -> true) net req =
  let b = req.Sdn.Request.bandwidth in
  Mcgraph.Sp_engine.create (Sdn.Network.graph net)
    ~weight:(fun e ->
      if keep e then b *. Sdn.Network.link_unit_cost net e else infinity)
    ~epoch:(fun () -> Sdn.Network.weight_epoch net)

(* checks that an edge set forms a tree (acyclic and connected) *)
let is_tree g edges =
  match edges with
  | [] -> true
  | e :: _ ->
    let u, _ = G.endpoints g e in
    (match Mcgraph.Tree.of_edges g ~root:u edges with
    | (_ : Mcgraph.Tree.t) -> true
    | exception Invalid_argument _ -> false)

let check_float = Alcotest.float 1e-6

(* a repair tier's name in failure messages and pinned event digests *)
let tier_to_string = function
  | Nfv_multicast.Repair.Patched -> "patched"
  | Migrated -> "migrated"
  | Readmitted -> "readmitted"

let assert_close ?(eps = 1e-6) msg a b =
  if Float.abs (a -. b) > eps *. (1.0 +. Float.abs a +. Float.abs b) then
    Alcotest.failf "%s: %.9g <> %.9g" msg a b

(* ---- bit-identity references for the array-backed kernels ---- *)

(* Weights with many exact ties: small integers, the same integers plus
   a hop epsilon (as Online_CP's prices carry), zeros and pruned
   (infinite) edges. *)
let tied_weights rng g =
  Array.init (G.m g) (fun _ ->
      match Rng.int rng 8 with
      | 0 -> infinity
      | 1 -> 0.0
      | 2 | 3 -> float_of_int (1 + Rng.int rng 3) +. 1e-6
      | _ -> float_of_int (1 + Rng.int rng 3))

(* The indexed binary heap as it stood before the hole-based sifts:
   every sift step swaps two slots. [Mcgraph.Heap] must make the same
   moves — same pops, same slot of every key — so that Dijkstra's tie
   order, and with it every tree, is unchanged. *)
module Ref_heap = struct
  type t = {
    keys : int array;
    prio : float array;
    pos : int array;
    mutable size : int;
  }

  let create capacity =
    if capacity < 0 then invalid_arg "Heap.create: negative capacity";
    {
      keys = Array.make (max capacity 1) (-1);
      prio = Array.make (max capacity 1) 0.0;
      pos = Array.make (max capacity 1) (-1);
      size = 0;
    }

  let in_range h key = key >= 0 && key < Array.length h.pos
  let mem h key = in_range h key && h.pos.(key) >= 0

  let swap h i j =
    let ki = h.keys.(i) and kj = h.keys.(j) in
    let pi = h.prio.(i) and pj = h.prio.(j) in
    h.keys.(i) <- kj;
    h.keys.(j) <- ki;
    h.prio.(i) <- pj;
    h.prio.(j) <- pi;
    h.pos.(kj) <- i;
    h.pos.(ki) <- j

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.prio.(i) < h.prio.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && h.prio.(l) < h.prio.(!smallest) then smallest := l;
    if r < h.size && h.prio.(r) < h.prio.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let insert h ~key p =
    if not (in_range h key) then invalid_arg "Heap.insert: key out of range";
    if h.pos.(key) >= 0 then invalid_arg "Heap.insert: key already present";
    let i = h.size in
    h.keys.(i) <- key;
    h.prio.(i) <- p;
    h.pos.(key) <- i;
    h.size <- i + 1;
    sift_up h i

  let decrease h ~key p =
    if not (mem h key) then invalid_arg "Heap.decrease: key absent";
    let i = h.pos.(key) in
    if p > h.prio.(i) then invalid_arg "Heap.decrease: priority increase";
    h.prio.(i) <- p;
    sift_up h i

  let insert_or_decrease h ~key p =
    if not (in_range h key) then
      invalid_arg "Heap.insert_or_decrease: key out of range";
    let i = h.pos.(key) in
    if i < 0 then insert h ~key p else if p < h.prio.(i) then decrease h ~key p

  let insert_or_decrease_from h prios key =
    if not (in_range h key) then
      invalid_arg "Heap.insert_or_decrease: key out of range";
    insert_or_decrease h ~key prios.(key)

  let pop_min h =
    if h.size = 0 then None
    else begin
      let key = h.keys.(0) and p = h.prio.(0) in
      let last = h.size - 1 in
      swap h 0 last;
      h.size <- last;
      h.pos.(key) <- -1;
      if last > 0 then sift_down h 0;
      Some (key, p)
    end

  let pop_min_key h = match pop_min h with None -> -1 | Some (key, _) -> key

  let clear h =
    for i = 0 to h.size - 1 do
      h.pos.(h.keys.(i)) <- -1
    done;
    h.size <- 0

  (* the shape of [Mcgraph.Heap.For_testing.state] *)
  let state h =
    (Array.sub h.keys 0 h.size, Array.sub h.prio 0 h.size, Array.copy h.pos)
end

(* [Sp_window.bucket] as it stood before the linear count: a sorted
   snapshot of every link residual and a binary search for the first
   one at or above [bandwidth -. 1e-9]. *)
let reference_bucket net ~bandwidth =
  let r = Array.init (Sdn.Network.m net) (Sdn.Network.link_residual net) in
  Array.sort compare r;
  let threshold = bandwidth -. 1e-9 in
  let lo = ref 0 and hi = ref (Array.length r) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if r.(mid) < threshold then lo := mid + 1 else hi := mid
  done;
  !lo

(* Dijkstra as it stood before the weight-vector kernel: the closure is
   evaluated on every scanned edge and [Heap.pop_min] returns the popped
   priority. The kernel must reproduce it bit for bit; it runs on the
   swap-based reference heap, so the comparison also pins the tie order
   the kernel inherited. *)
let reference_dijkstra g ~weight ~source =
  let module H = Ref_heap in
  let nn = G.n g in
  let dist = Array.make nn infinity in
  let parent_edge = Array.make nn (-1) in
  let parent = Array.make nn (-1) in
  let heap = H.create nn in
  let settled = Array.make nn false in
  dist.(source) <- 0.0;
  H.insert heap ~key:source 0.0;
  let rec drain () =
    match H.pop_min heap with
    | None -> ()
    | Some (u, du) ->
      settled.(u) <- true;
      G.iter_neighbors g u (fun v e ->
          if not settled.(v) then begin
            let w = weight e in
            if w < 0.0 then invalid_arg "Paths.dijkstra: negative weight";
            if w < infinity then begin
              let d' = du +. w in
              if d' < dist.(v) then begin
                dist.(v) <- d';
                parent_edge.(v) <- e;
                parent.(v) <- u;
                H.insert_or_decrease heap ~key:v d'
              end
            end
          end);
      drain ()
  in
  drain ();
  { Mcgraph.Paths.source; dist; parent_edge; parent }

(* equal on [dist] bits, [parent] and [parent_edge] *)
let same_spt (a : Mcgraph.Paths.spt) (b : Mcgraph.Paths.spt) =
  a.source = b.source
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.dist b.dist
  && a.parent = b.parent
  && a.parent_edge = b.parent_edge

(* graphs of alternating sizes, so a kernel's per-domain scratch meets
   stamps left by a larger graph: large, small, medium, small *)
let size_ladder = [ (60, 120); (2, 8); (20, 40); (2, 8) ]

(* [Repair]'s leaf pruning as it stood before [Mcgraph.Tree.prune]: drop
   every leaf outside [keep_nodes] (never the root), rebuild, and repeat
   until no leaf can go. [Tree.prune] must return the same rooted tree
   and the same edge list, order included. *)
let reference_prune g ~root ~keep_nodes edges =
  let module T = Mcgraph.Tree in
  let rec go edges =
    let t = T.of_edges g ~root edges in
    let removable =
      List.filter
        (fun v -> v <> root && not (List.mem v keep_nodes))
        (T.leaves t)
    in
    if removable = [] then (t, edges)
    else begin
      let drop = List.map (fun v -> T.parent_edge t v) removable in
      go (List.filter (fun e -> not (List.mem e drop)) edges)
    end
  in
  go edges

(* [Mcgraph.Tree] as it stood before its arrays were sized to the tree:
   three node-indexed arrays filled by a [Queue] BFS over
   [iter_neighbors], and the BFS order as a list. The new layout must
   answer every query the same way and raise the same messages in the
   same order. *)
module Ref_tree = struct
  type t = {
    root_node : int;
    parent_node : int array;
    parent_edge_id : int array;
    depth_of : int array;
    order : int list;
  }

  let of_edges g ~root edges =
    let nn = G.n g in
    if root < 0 || root >= nn then invalid_arg "Tree.of_edges: root out of range";
    let m = G.m g in
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
              if parent_edge_id.(v) <> e then
                invalid_arg "Tree.of_edges: cycle in edge set"
          end)
    done;
    if !used <> List.length edges then
      invalid_arg "Tree.of_edges: edge set not connected to root";
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

  let depth t v =
    check_mem t v "Tree.depth";
    t.depth_of.(v)

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
end
