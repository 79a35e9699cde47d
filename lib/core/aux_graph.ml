module G = Mcgraph.Graph
module Paths = Mcgraph.Paths
module Sp = Mcgraph.Sp_engine

(* The per-request table behind [redundant] (DESIGN.md §17). Positions
   are candidate positions (the virtual-edge order); a row is the
   engine's distance array of that candidate, [[||]] when it was not
   cached when the table was built. *)
type dominance = {
  usable : bool;                            (* every Q × Q distance known *)
  nc : int;                                 (* candidate positions *)
  index : int array;                        (* node -> position, or -1 *)
  tol : float;                              (* margin over rounding *)
  srow : float array array;                 (* position -> engine row *)
  off_q : bool array;                       (* u -> (b) on Q × Q *)
  off_s : bool array;                       (* u·nc + v -> (b) on {v} × Q *)
  nw : int;                                 (* mask words per (u, v) *)
  beats : int array;                        (* (u·nc + v)·nw + w -> (a) on Q *)
  full : int array;                         (* word -> all of Q's bits *)
}


type t = {
  req : Sdn.Request.t;
  ext : G.t;
  vnode : int;
  base_m : int;
  vedge_of_server : (int, int) Hashtbl.t;   (* server -> virtual edge id *)
  server_of_vedge : int array;              (* vedge id - base_m -> server *)
  wv : float array;                         (* vedge id - base_m -> its weight *)
  engine : Sp.t;                            (* base graph, the caller's price *)
  candidates : int list;
  terminals : int list;                     (* {s'_k} ∪ D_k, sorted, unique *)
  (* the a_x memo of the subset metric that queried last (see [through]) *)
  mutable ax_owner : int;                   (* that metric's id *)
  mutable ax_next : int;                    (* next subset metric id *)
  mutable ax_gen : int;                     (* generation of [ax_owner] *)
  ax_stamp : int array;                     (* node -> generation of its row *)
  mutable ax_rows : float array;            (* node x's row at x·h .. x·h+h-1 *)
  mutable dom : dominance option;           (* built on [redundant]'s first use *)
}

let build ~engine ?placement_cost ~net ~request ~candidate_servers () =
  let g = Sdn.Network.graph net in
  let nn = G.n g and mm = G.m g in
  let ext = G.create (nn + 1) in
  G.iter_edges g (fun _ u v -> ignore (G.add_edge ext u v));
  let vedge_of_server = Hashtbl.create 16 in
  let server_of_vedge = Array.make (max (List.length candidate_servers) 1) (-1) in
  List.iteri
    (fun i v ->
      let e = G.add_edge ext nn v in
      Hashtbl.replace vedge_of_server v e;
      server_of_vedge.(i) <- v)
    candidate_servers;
  let placement_cost =
    match placement_cost with
    | Some c -> c
    | None -> fun v -> Sdn.Network.chain_cost net v request.Sdn.Request.chain
  in
  let t =
    {
      req = request;
      ext;
      vnode = nn;
      base_m = mm;
      vedge_of_server;
      server_of_vedge;
      wv = Array.make (Array.length server_of_vedge) infinity;
      engine;
      candidates = candidate_servers;
      terminals = List.sort_uniq Int.compare (nn :: request.Sdn.Request.destinations);
      ax_owner = -1;
      ax_next = 0;
      ax_gen = 0;
      ax_stamp = Array.make (nn + 1) 0;
      ax_rows = [||];
      dom = None;
    }
  in
  let s = request.Sdn.Request.source in
  List.iteri
    (fun i v ->
      let d = Sp.dist t.engine s v in
      let w =
        if d = infinity then infinity
        else d +. placement_cost v
      in
      t.wv.(i) <- w)
    candidate_servers;
  t

let ext_graph t = t.ext
let virtual_node t = t.vnode
let base_edge_count t = t.base_m
let is_virtual_edge t e = e >= t.base_m
let server_of_virtual_edge t e =
  if not (is_virtual_edge t e) then invalid_arg "Aux_graph: not a virtual edge";
  t.server_of_vedge.(e - t.base_m)

let virtual_edge_of_server t v = Hashtbl.find_opt t.vedge_of_server v

let virtual_edge_weight t v =
  match Hashtbl.find_opt t.vedge_of_server v with
  | Some e -> t.wv.(e - t.base_m)
  | None -> invalid_arg "Aux_graph.virtual_edge_weight: not a candidate"

let reachable_servers t =
  List.filter (fun v -> virtual_edge_weight t v < infinity) t.candidates

let base_dist t u v = Sp.dist t.engine u v
let base_path t u v = Sp.path t.engine u v

(* ------------------------------------------------------------------ *)
(* subset metric: exact hub decomposition                               *)

type hub_move =
  | Base_leg                  (* shortest base path between the two hubs *)
  | Special of int            (* a single special edge id *)
  | Via of int                (* intermediate hub index (Floyd) *)

type subset_metric = {
  aux : t;
  id : int;                   (* owner key of the a_x memo *)
  subset : int list;
  h : int;                    (* number of hubs *)
  hubs : int array;           (* node ids; hubs.(0) = s_k, hubs.(1) = s'_k *)
  hub_row : float array array; (* hubs.(i)'s engine dist array; [||] at s'_k *)
  hd : float array array;     (* hub-to-hub exact distances *)
  hmove : hub_move array array;
  wvec : float array;         (* the engine's weight vector at creation *)
}

(* base edges cost what the engine's pruned weights say: its per-epoch
   vector, the same values [Sp.dist] and [Sp.path] were computed from *)
let[@inline] weight sm e =
  let t = sm.aux in
  if e >= t.base_m then begin
    let i = e - t.base_m in
    if List.mem t.server_of_vedge.(i) sm.subset then t.wv.(i) else infinity
  end
  else sm.wvec.(e)

let subset_metric t subset =
  List.iter
    (fun v ->
      if not (Hashtbl.mem t.vedge_of_server v) then
        invalid_arg "Aux_graph.subset_metric: not a candidate server")
    subset;
  (* The paper zeroes the cost of base edges (s_k, v) for v in the chosen
     combination (Algorithm 1, step 5). Under per-traversal resource
     accounting that rule lets Steiner trees transit server-adjacent
     edges for free — including for servers whose VM is never used — and
     systematically inflates the realised cost of multi-server trees, so
     we deliberately do not apply it (DESIGN.md §3): the only special
     edges are the virtual ones. *)
  let hubs = Array.of_list (t.req.Sdn.Request.source :: t.vnode :: subset) in
  let h = Array.length hubs in
  (* snapshot each hub's engine row once so the (hot) metric queries
     below read flat float arrays, not the cache; rows are shared with
     the engine across all subsets of the same request *)
  let hub_row =
    Array.map
      (fun hv ->
        if hv = t.vnode then [||] else (Sp.spt t.engine hv).Mcgraph.Paths.dist)
      hubs
  in
  let hd = Array.make_matrix h h infinity in
  let hmove = Array.make_matrix h h Base_leg in
  (* direct moves: base legs between base hubs, virtual edges
     (s'_k ↔ subset server) *)
  for i = 0 to h - 1 do
    hd.(i).(i) <- 0.0;
    for j = 0 to h - 1 do
      if i <> j then begin
        let hi = hubs.(i) and hj = hubs.(j) in
        if hi <> t.vnode && hj <> t.vnode then begin
          hd.(i).(j) <- hub_row.(i).(hj);
          hmove.(i).(j) <- Base_leg
        end
      end
    done
  done;
  let set_special i j w e =
    if w < hd.(i).(j) then begin
      hd.(i).(j) <- w;
      hd.(j).(i) <- w;
      hmove.(i).(j) <- Special e;
      hmove.(j).(i) <- Special e
    end
  in
  Array.iteri
    (fun j hj ->
      if j >= 2 then begin
        (* hub j is a subset server: virtual edge to s'_k *)
        match virtual_edge_of_server t hj with
        | Some e -> set_special 1 j (virtual_edge_weight t hj) e
        | None -> ()
      end)
    hubs;
  (* Floyd–Warshall over the hubs *)
  for k = 0 to h - 1 do
    for i = 0 to h - 1 do
      for j = 0 to h - 1 do
        if hd.(i).(k) +. hd.(k).(j) < hd.(i).(j) then begin
          hd.(i).(j) <- hd.(i).(k) +. hd.(k).(j);
          hmove.(i).(j) <- Via k
        end
      done
    done
  done;
  let id = t.ax_next in
  t.ax_next <- id + 1;
  { aux = t; id; subset; h; hubs; hub_row; hd; hmove; wvec = Sp.weights t.engine }

let rec hub_from hubs node i =
  if i >= Array.length hubs then -1
  else if hubs.(i) = node then i
  else hub_from hubs node (i + 1)

let hub_index sm node = hub_from sm.hubs node 0

(* The row a_x(j) = min_i rx(h_i) + hd(i, j) over base hubs i, for a
   non-hub node x, filled on x's first non-hub query: its offset in the
   request's scratch. The scratch holds the rows of one subset metric at
   a time; a query from another one takes it over and starts a new
   generation, so a row is never read under another metric's hubs. *)
let through sm x rx =
  let t = sm.aux in
  let h = sm.h in
  if t.ax_owner <> sm.id then begin
    t.ax_owner <- sm.id;
    t.ax_gen <- t.ax_gen + 1;
    let need = Array.length t.ax_stamp * h in
    if Array.length t.ax_rows < need then t.ax_rows <- Array.make need infinity
  end;
  let base = x * h in
  if t.ax_stamp.(x) <> t.ax_gen then begin
    let a = t.ax_rows in
    Array.fill a base h infinity;
    for i = 0 to h - 1 do
      if sm.hubs.(i) <> t.vnode then
        for j = 0 to h - 1 do
          let c = rx.(sm.hubs.(i)) +. sm.hd.(i).(j) in
          if c < a.(base + j) then a.(base + j) <- c
        done
    done;
    t.ax_stamp.(x) <- t.ax_gen
  end;
  base

(* [out.(k)] <- distance between extended nodes x (hub index [ix], or
   -1) and y; hubs.(1) is the virtual node. A non-hub x reads its engine
   row once per query. *)
let dist_into sm x ix y out k =
  let t = sm.aux in
  let h = sm.h in
  let iy = hub_index sm y in
  if ix >= 0 && iy >= 0 then out.(k) <- sm.hd.(ix).(iy)
  else if ix >= 0 then begin
    let best = ref infinity in
    for j = 0 to h - 1 do
      if sm.hubs.(j) <> t.vnode then begin
        let c = sm.hd.(ix).(j) +. sm.hub_row.(j).(y) in
        if c < !best then best := c
      end
    done;
    out.(k) <- !best
  end
  else begin
    let rx = (Sp.spt t.engine x).Mcgraph.Paths.dist in
    if iy >= 0 then begin
      let best = ref infinity in
      for i = 0 to h - 1 do
        if sm.hubs.(i) <> t.vnode then begin
          let c = rx.(sm.hubs.(i)) +. sm.hd.(i).(iy) in
          if c < !best then best := c
        end
      done;
      out.(k) <- !best
    end
    else begin
      (* min over (i, j) of (rx(h_i) + hd(i, j)) + row_j(y) taken as
         min over j of a_x(j) + row_j(y): rounded addition is monotone,
         so the inner minimum commutes with adding row_j(y), bit for bit *)
      let base = through sm x rx in
      let a = t.ax_rows in
      let best = ref rx.(y) in
      for j = 0 to h - 1 do
        if sm.hubs.(j) <> t.vnode then begin
          let c = a.(base + j) +. sm.hub_row.(j).(y) in
          if c < !best then best := c
        end
      done;
      out.(k) <- !best
    end
  end

let fill_row sm x dst n out =
  let ix = hub_index sm x in
  for i = 0 to n - 1 do
    dist_into sm x ix dst.(i) out i
  done

let dist sm x y =
  let out = [| 0.0 |] in
  dist_into sm x (hub_index sm x) y out 0;
  out.(0)

(* expand the hub-level move (i, j) into concrete edge ids *)
let rec expand_hub sm i j acc =
  if i = j then acc
  else
    match sm.hmove.(i).(j) with
    | Special e -> e :: acc
    | Base_leg -> (
      match Sp.path sm.aux.engine sm.hubs.(i) sm.hubs.(j) with
      | Some p -> ( match acc with [] -> p | _ -> p @ acc)
      | None -> invalid_arg "Aux_graph: hub base leg without path")
    | Via k -> expand_hub sm i k (expand_hub sm k j acc)

let path sm x y =
  let t = sm.aux in
  if dist sm x y = infinity then None
  else if x = y then Some []
  else begin
    let h = sm.h in
    let ix = hub_index sm x and iy = hub_index sm y in
    (* recompute the argmin of [dist] and expand it *)
    let best = ref infinity and choice = ref `None in
    if ix >= 0 && iy >= 0 then begin
      best := sm.hd.(ix).(iy);
      choice := `Hub (ix, iy)
    end
    else if ix >= 0 then begin
      for j = 0 to h - 1 do
        if sm.hubs.(j) <> t.vnode then begin
          let c = sm.hd.(ix).(j) +. sm.hub_row.(j).(y) in
          if c < !best then begin
            best := c;
            choice := `From_hub (ix, j)
          end
        end
      done
    end
    else if iy >= 0 then begin
      let rx = (Sp.spt t.engine x).Mcgraph.Paths.dist in
      for i = 0 to h - 1 do
        if sm.hubs.(i) <> t.vnode then begin
          let c = rx.(sm.hubs.(i)) +. sm.hd.(i).(iy) in
          if c < !best then begin
            best := c;
            choice := `To_hub (i, iy)
          end
        end
      done
    end
    else begin
      let rx = (Sp.spt t.engine x).Mcgraph.Paths.dist in
      best := rx.(y);
      choice := `Direct;
      for i = 0 to h - 1 do
        if sm.hubs.(i) <> t.vnode then
          for j = 0 to h - 1 do
            if sm.hubs.(j) <> t.vnode then begin
              let c =
                rx.(sm.hubs.(i))
                +. sm.hd.(i).(j)
                +. sm.hub_row.(j).(y)
              in
              if c < !best then begin
                best := c;
                choice := `Through (i, j)
              end
            end
          done
      done
    end;
    let base_path_exn a b =
      match Sp.path t.engine a b with
      | Some p -> p
      | None -> invalid_arg "Aux_graph.path: missing base path"
    in
    let edges =
      match !choice with
      | `None -> invalid_arg "Aux_graph.path: unreachable"
      | `Direct -> base_path_exn x y
      | `Hub (i, j) -> expand_hub sm i j []
      | `From_hub (i, j) -> expand_hub sm i j (base_path_exn sm.hubs.(j) y)
      | `To_hub (i, j) -> base_path_exn x sm.hubs.(i) @ expand_hub sm i j []
      | `Through (i, j) ->
        base_path_exn x sm.hubs.(i)
        @ expand_hub sm i j (base_path_exn sm.hubs.(j) y)
    in
    Some edges
  end

let steiner_tree sm =
  Mcgraph.Steiner.kmb_with_metric sm.aux.ext ~weight:(weight sm)
    ~terminals:sm.aux.terminals ~row:(fill_row sm) ~path:(path sm)

let tree_cost sm edges =
  let acc = ref 0.0 and rest = ref edges and fin = ref false in
  while not !fin do
    match !rest with
    | [] -> fin := true
    | e :: r ->
      acc := !acc +. weight sm e;
      rest := r
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* servers that change nothing (DESIGN.md §17)                          *)

let mask_bits = 62

(* Read off the engine rows already cached — the source's, the reachable
   candidates' and the destinations' — so building it never runs a
   Dijkstra. A candidate without a cached row takes no part (its flags
   stay false); a destination pair neither of whose rows is cached
   leaves the whole table unusable. Either way less is pruned, never
   more. *)
let build_dominance t =
  let nc = List.length t.candidates in
  let row v =
    match Sp.peek t.engine v with Some spt -> spt.Paths.dist | None -> [||]
  in
  let has r = Array.length r > 0 in
  let q =
    Array.of_list
      (List.sort_uniq Int.compare
         (t.req.Sdn.Request.source :: t.req.Sdn.Request.destinations))
  in
  let nq = Array.length q in
  let qrow = Array.map row q in
  (* d(p, q) off whichever end has a cached row *)
  let usable = ref true in
  let dqq = Array.make_matrix nq nq 0.0 in
  for a = 0 to nq - 1 do
    for b = 0 to nq - 1 do
      if a <> b then
        if has qrow.(a) then dqq.(a).(b) <- qrow.(a).(q.(b))
        else if has qrow.(b) then dqq.(a).(b) <- qrow.(b).(q.(a))
        else usable := false
    done
  done;
  let srow =
    Array.init nc (fun i ->
        if t.wv.(i) < infinity then row t.server_of_vedge.(i) else [||])
  in
  let index = Array.make (t.vnode + 1) (-1) in
  List.iteri (fun i v -> index.(v) <- i) t.candidates;
  (* the margin Online_cp.slack gives, taken against the largest finite
     distance the rule compares, so it dominates the rounding of every
     float sum in the metric *)
  let maxd = ref 1.0 in
  let see x = if x < infinity && x > !maxd then maxd := x in
  Array.iter (Array.iter see) dqq;
  Array.iteri
    (fun i r ->
      if has r then begin
        see t.wv.(i);
        Array.iter (fun x -> see r.(x)) q;
        List.iter (fun v -> see r.(v)) t.candidates
      end)
    srow;
  let tol = 1e-9 *. !maxd in
  let in_q v = Array.exists (fun x -> x = v) q in
  (* (b) on Q × Q: u lies off every shortest path between Q's nodes *)
  let off_q =
    Array.init nc (fun i ->
        let su = srow.(i) in
        has su
        && (not (in_q t.server_of_vedge.(i)))
        && begin
          let ok = ref true in
          for a = 0 to nq - 1 do
            for b = 0 to nq - 1 do
              if a <> b && not (su.(q.(a)) +. su.(q.(b)) > dqq.(a).(b) +. tol)
              then ok := false
            done
          done;
          !ok
        end)
  in
  (* (b) on {v} × Q: u lies off every shortest path from server v to Q *)
  let off_s = Array.make (nc * nc) false in
  let nw = (nq + mask_bits - 1) / mask_bits in
  let beats = Array.make (nc * nc * nw) 0 in
  for i = 0 to nc - 1 do
    for j = 0 to nc - 1 do
      let su = srow.(i) and sv = srow.(j) in
      if i <> j && has su && has sv then begin
        let v = t.server_of_vedge.(j) in
        let ok = ref true in
        for b = 0 to nq - 1 do
          let x = q.(b) in
          if x <> v && not (su.(v) +. su.(x) > sv.(x) +. tol) then ok := false;
          (* (a) at x: the route s'_k → v → x beats s'_k → u → x *)
          if t.wv.(i) +. su.(x) > t.wv.(j) +. sv.(x) +. tol then begin
            let w = ((i * nc) + j) * nw + (b / mask_bits) in
            beats.(w) <- beats.(w) lor (1 lsl (b mod mask_bits))
          end
        done;
        off_s.((i * nc) + j) <- !ok
      end
    done
  done;
  let full =
    Array.init nw (fun w ->
        (1 lsl min mask_bits (nq - (w * mask_bits))) - 1)
  in
  { usable = !usable; nc; index; tol; srow; off_q; off_s; nw; beats; full }

let dominance t =
  match t.dom with
  | Some d -> d
  | None ->
    let d = build_dominance t in
    t.dom <- Some d;
    d

(* [R] below is [subset] without the server at position [iu]: each
   function traverses [subset] and skips [iu]. *)

(* (b) on {v} × Q for every v ∈ R, read off the table — which also
   guarantees every row of R is present for the checks after it *)
let rec rows_off d iu = function
  | [] -> true
  | v :: rest ->
    let iv = d.index.(v) in
    (iv = iu || d.off_s.((iu * d.nc) + iv)) && rows_off d iu rest

(* min over v ∈ R of w_v + d(v, x) *)
let rec best_to d t iu x acc = function
  | [] -> acc
  | v :: rest ->
    let iv = d.index.(v) in
    let acc =
      if iv = iu then acc
      else
        let c = t.wv.(iv) +. d.srow.(iv).(x) in
        if c < acc then c else acc
    in
    best_to d t iu x acc rest

(* (b) on {v} × {v'} for the servers v' of R listed after v *)
let rec pairs_off d iu v iv = function
  | [] -> true
  | v' :: rest ->
    let iv' = d.index.(v') in
    (iv' = iu
    || d.srow.(iu).(v) +. d.srow.(iu).(v') > d.srow.(iv).(v') +. d.tol)
    && pairs_off d iu v iv rest

(* (a) at each server of R, and (b) on R × R *)
let rec at_servers d t iu all = function
  | [] -> true
  | v :: rest ->
    let iv = d.index.(v) in
    (iv = iu
    || t.wv.(iu) +. d.srow.(iu).(v) > best_to d t iu v infinity all +. d.tol
       && pairs_off d iu v iv rest)
    && at_servers d t iu all rest

(* (a) on Q: every node of Q has a server of R that beats u there *)
let rec union d iu w acc = function
  | [] -> acc
  | v :: rest ->
    let iv = d.index.(v) in
    union d iu w
      (if iv = iu then acc else acc lor d.beats.((((iu * d.nc) + iv) * d.nw) + w))
      rest

let rec covers d iu subset w =
  w >= d.nw
  || (union d iu w 0 subset = d.full.(w) && covers d iu subset (w + 1))

let inert d t subset u =
  let iu = d.index.(u) in
  d.off_q.(iu)
  && rows_off d iu subset
  && at_servers d t iu subset subset
  && covers d iu subset 0

let rec exists_inert d t subset = function
  | [] -> false
  | u :: rest -> inert d t subset u || exists_inert d t subset rest

let rec all_candidates d = function
  | [] -> true
  | v :: rest ->
    v >= 0 && v < Array.length d.index && d.index.(v) >= 0
    && all_candidates d rest

let redundant t subset =
  match subset with
  | [] | [ _ ] -> false
  | _ ->
    let d = dominance t in
    if not (all_candidates d subset) then
      invalid_arg "Aux_graph.redundant: not a candidate server";
    d.usable && exists_inert d t subset subset

let to_pseudo_tree t tree_edges =
  let req = t.req in
  let tree = Mcgraph.Tree.of_edges t.ext ~root:t.vnode tree_edges in
  let servers = ref [] in
  let uses = ref [] in
  List.iter
    (fun e ->
      if is_virtual_edge t e then begin
        let v = server_of_virtual_edge t e in
        servers := v :: !servers;
        match base_path t req.Sdn.Request.source v with
        | Some p -> uses := p @ !uses
        | None -> invalid_arg "Aux_graph.to_pseudo_tree: unreachable server"
      end
      else uses := e :: !uses)
    tree_edges;
  if !servers = [] then invalid_arg "Aux_graph.to_pseudo_tree: no server in tree";
  let route_of d =
    if not (Mcgraph.Tree.mem tree d) then
      invalid_arg "Aux_graph.to_pseudo_tree: destination not spanned";
    let down = List.rev (Mcgraph.Tree.path_up tree d ~ancestor:t.vnode) in
    match down with
    | first :: onward when is_virtual_edge t first ->
      let v = server_of_virtual_edge t first in
      let to_server =
        match base_path t req.Sdn.Request.source v with
        | Some p -> p
        | None -> assert false
      in
      (d, { Pseudo_tree.to_server; server = v; onward })
    | _ -> invalid_arg "Aux_graph.to_pseudo_tree: path does not start virtually"
  in
  let routes = List.map route_of req.Sdn.Request.destinations in
  Pseudo_tree.make ~request:req ~servers:!servers
    ~edge_uses:(Pseudo_tree.edge_uses_of_list !uses)
    ~routes
