module G = Mcgraph.Graph
module Paths = Mcgraph.Paths
module Sp = Mcgraph.Sp_engine
module Obs = Nfv_obs.Obs

let c_dominated = Obs.Counter.make "appro_multi.pruned.dominated"
let c_bottleneck = Obs.Counter.make "appro_multi.pruned.bottleneck"

(* The per-request table behind [redundant] (DESIGN.md §17). Positions
   are candidate positions (the virtual-edge order); a row is the
   engine's distance array of that candidate, [[||]] when it was not
   cached when the table was built. *)
type dominance = {
  usable : bool;                            (* every Q × Q distance known *)
  nc : int;                                 (* candidate positions *)
  tol : float;                              (* margin over rounding *)
  srow : float array array;                 (* position -> engine row *)
  off_q : bool array;                       (* u -> (b) on Q × Q *)
  off_s : bool array;                       (* u·nc + v -> (b) on {v} × Q *)
  nw : int;                                 (* mask words per (u, v) *)
  beats : int array;                        (* (u·nc + v)·nw + w -> (a) on Q *)
  full : int array;                         (* word -> all of Q's bits *)
  via : float array;                        (* u -> w_u + min over D_k of d(u, y) *)
}


(* Point and hub indices (DESIGN.md §8). Points are the destinations,
   0..nt-1 in node order, with s'_k at nt; base hubs are the candidate
   positions 0..nc-1 with s_k at nc. The four tables below hold the
   engine distances the subset loop reads, row-major, a row written from
   its owner's engine row the first time it is read. *)
type t = {
  req : Sdn.Request.t;
  base : G.t;
  vnode : int;
  base_m : int;
  pos : int array;                          (* ext node -> candidate position, or -1 *)
  bnode : int array;                        (* base hub -> node; KMB's spokes *)
  wv : float array;                         (* vedge id - base_m -> its weight *)
  engine : Sp.t;                            (* base graph, the caller's price *)
  candidates : int list;
  points : int array;                       (* point -> node: D_k sorted, then s'_k *)
  ppos : int array;                         (* ext node -> point, or -1 *)
  nt : int;                                 (* destinations *)
  nb : int;                                 (* base hubs, nc + 1 *)
  dd : float array;                         (* destination x destination *)
  dh : float array;                         (* destination x base hub *)
  hdst : float array;                       (* base hub x destination *)
  hh : float array;                         (* base hub x base hub *)
  dfull : bool array;                       (* destination row written *)
  hfull : bool array;                       (* base hub row written *)
  mutable tab_w : float array;              (* engine vector the rows were read at *)
  phub : int array;                         (* point -> hub index of metric [owner] *)
  mutable owner : int;                      (* metric id [phub] was filled for *)
  mutable metrics : int;                    (* metric ids handed out *)
  mutable vec : float array;                (* the hub vector of the row being filled *)
  mutable dom : dominance option;           (* built on [redundant]'s first use *)
  k : int;                                  (* most servers per subset *)
  bneck : float array;                      (* slot of < k servers -> closure-MST bottleneck *)
}

let build ~engine ?placement_cost ~k ~net ~request ~candidate_servers () =
  let g = Sdn.Network.graph net in
  let nn = G.n g and mm = G.m g in
  let nc = List.length candidate_servers in
  let pos = Array.make (nn + 1) (-1) in
  let s = request.Sdn.Request.source in
  let bnode = Array.make (nc + 1) s in
  List.iteri
    (fun i v ->
      pos.(v) <- i;
      bnode.(i) <- v)
    candidate_servers;
  let placement_cost =
    match placement_cost with
    | Some c -> c
    | None -> fun v -> Sdn.Network.chain_cost net v request.Sdn.Request.chain
  in
  let points =
    Array.of_list (List.sort_uniq Int.compare (nn :: request.Sdn.Request.destinations))
  in
  let nt = Array.length points - 1 and nb = nc + 1 in
  let ppos = Array.make (nn + 1) (-1) in
  Array.iteri (fun p v -> ppos.(v) <- p) points;
  let t =
    {
      req = request;
      base = g;
      vnode = nn;
      base_m = mm;
      pos;
      bnode;
      wv = Array.make nc infinity;
      engine;
      candidates = candidate_servers;
      points;
      ppos;
      nt;
      nb;
      dd = Array.make (nt * nt) infinity;
      dh = Array.make (nt * nb) infinity;
      hdst = Array.make (nb * nt) infinity;
      hh = Array.make (nb * nb) infinity;
      dfull = Array.make nt false;
      hfull = Array.make nb false;
      tab_w = [||];
      phub = Array.make (nt + 1) (-1);
      owner = 0;
      metrics = 0;
      vec = [||];
      dom = None;
      k;
      bneck = Array.make (Combinations.count_up_to nc (k - 1)) Float.nan;
    }
  in
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

let k t = t.k
let virtual_node t = t.vnode
let base_edge_count t = t.base_m
let is_virtual_edge t e = e >= t.base_m && e < t.base_m + Array.length t.wv
let server_of_virtual_edge t e =
  if not (is_virtual_edge t e) then invalid_arg "Aux_graph: not a virtual edge";
  t.bnode.(e - t.base_m)

let is_candidate t v = v >= 0 && v < Array.length t.pos && t.pos.(v) >= 0

let virtual_edge_of_server t v =
  if is_candidate t v then Some (t.base_m + t.pos.(v)) else None

let virtual_edge_weight t v =
  if not (is_candidate t v) then
    invalid_arg "Aux_graph.virtual_edge_weight: not a candidate";
  t.wv.(t.pos.(v))

let reachable_servers t =
  List.filter (fun v -> virtual_edge_weight t v < infinity) t.candidates

let base_dist t u v = Sp.dist t.engine u v
let base_path t u v = Sp.path t.engine u v

(* ------------------------------------------------------------------ *)
(* the per-request tables                                               *)

(* destination [px]'s rows: its engine row read at every destination
   and every base hub *)
let read_point_row t px =
  if not t.dfull.(px) then begin
    let rx = (Sp.spt t.engine t.points.(px)).Paths.dist in
    for q = 0 to t.nt - 1 do
      t.dd.((px * t.nt) + q) <- rx.(t.points.(q))
    done;
    for b = 0 to t.nb - 1 do
      t.dh.((px * t.nb) + b) <- rx.(t.bnode.(b))
    done;
    t.dfull.(px) <- true
  end

(* base hub [b]'s rows, likewise *)
let read_hub_row t b =
  if not t.hfull.(b) then begin
    let rb = (Sp.spt t.engine t.bnode.(b)).Paths.dist in
    for q = 0 to t.nt - 1 do
      t.hdst.((b * t.nt) + q) <- rb.(t.points.(q))
    done;
    for c = 0 to t.nb - 1 do
      t.hh.((b * t.nb) + c) <- rb.(t.bnode.(c))
    done;
    t.hfull.(b) <- true
  end

(* A base distance with a table behind it, [px]/[py] being the ends'
   point indices. Only [dist] and [path] between nodes that are neither
   points nor hubs reach the engine rows here. *)
let[@inline] to_base t x px b =
  if px >= 0 then t.dh.((px * t.nb) + b)
  else (Sp.spt t.engine x).Paths.dist.(t.bnode.(b))

let[@inline] from_base t b y py =
  if py >= 0 then t.hdst.((b * t.nt) + py)
  else (Sp.spt t.engine t.bnode.(b)).Paths.dist.(y)

let[@inline] between t x px y py =
  if px >= 0 && py >= 0 then t.dd.((px * t.nt) + py)
  else (Sp.spt t.engine x).Paths.dist.(y)

(* ------------------------------------------------------------------ *)
(* closure-MST bottlenecks, one per server subset (DESIGN.md §17)       *)

(* The slot of [subset] without candidate position [iu] (-1: none) in
   the bottleneck table: subsets of l servers follow those of fewer,
   and among them positions p_1 < ... < p_l sit at Σ C(p_i, i), their
   rank in the combinatorial number system. -1 when the positions do
   not increase (enumeration keeps candidate order) or none is left. *)
let slot t iu subset =
  let rec go i prev acc = function
    | [] -> if i = 1 then -1 else Combinations.count_up_to (t.nb - 1) (i - 2) + acc
    | v :: rest ->
      let p = t.pos.(v) in
      if p = iu then go i prev acc rest
      else if p <= prev then -1
      else go (i + 1) p (acc + Combinations.choose p i) rest
  in
  go 1 (-1) 0 subset

(* One slot per subset of fewer than [t.k] servers: rule (a') reads the
   slot of a priced subset minus one server, so a subset of [t.k]
   stores nothing. A slot holds nan until written at this weight
   vector. *)
let[@inline] bottleneck t k =
  if k >= 0 && k < Array.length t.bneck then t.bneck.(k) else Float.nan

let[@inline] set_bottleneck t k x =
  if k >= 0 && k < Array.length t.bneck then t.bneck.(k) <- x

(* ------------------------------------------------------------------ *)
(* subset metric: exact hub decomposition                               *)

(* A hub move, one int per ordered hub pair: a special edge's id (>= 0),
   [base_leg] (the shortest base path between the two hubs) or [via k]
   (through intermediate hub k, from Floyd–Warshall; [via] is its own
   inverse, so [via m] decodes the move). *)
let base_leg = -1
let[@inline] via k = -2 - k

type subset_metric = {
  aux : t;
  id : int;                   (* owner stamp of [aux.phub] *)
  slot : int;                 (* the subset's bottleneck slot *)
  h : int;                    (* number of hubs *)
  hb : int array;             (* hub -> base hub; hb.(0) = nc (s_k), hb.(1) = -1 (s'_k) *)
  hd : float array;           (* hub-to-hub exact distances, (i, j) at i·h + j *)
  hmove : int array;          (* the move realising hd, same layout *)
  wvec : float array;         (* the engine's weight vector at creation *)
}

let[@inline] hub_node sm i =
  let b = sm.hb.(i) in
  if b < 0 then sm.aux.vnode else sm.aux.bnode.(b)

(* whether candidate position [i] is one of the subset's servers, hubs 2
   and up: the source, hub 0, may itself be a candidate *)
let in_subset sm i =
  let found = ref false in
  for j = 2 to sm.h - 1 do
    if sm.hb.(j) = i then found := true
  done;
  !found

(* base edges cost what the engine's pruned weights say: its per-epoch
   vector, the same values [Sp.dist] and [Sp.path] were computed from *)
let[@inline] weight sm e =
  let t = sm.aux in
  if e >= t.base_m then begin
    let i = e - t.base_m in
    if in_subset sm i then t.wv.(i) else infinity
  end
  else sm.wvec.(e)

(* hb.(i..) <- the base hubs of [subset]'s servers *)
let rec server_hubs t hb i = function
  | [] -> ()
  | v :: rest ->
    if not (is_candidate t v) then
      invalid_arg "Aux_graph.subset_metric: not a candidate server";
    hb.(i) <- t.pos.(v);
    server_hubs t hb (i + 1) rest

let subset_metric t subset =
  (* The paper zeroes the cost of base edges (s_k, v) for v in the chosen
     combination (Algorithm 1, step 5). Under per-traversal resource
     accounting that rule lets Steiner trees transit server-adjacent
     edges for free — including for servers whose VM is never used — and
     systematically inflates the realised cost of multi-server trees, so
     we deliberately do not apply it (DESIGN.md §3): the only special
     edges are the virtual ones. *)
  let h = 2 + List.length subset in
  let hb = Array.make h (-1) in
  hb.(0) <- t.nb - 1;
  server_hubs t hb 2 subset;
  (* rows read at another epoch are read again, bottlenecks found again *)
  let wvec = Sp.weights t.engine in
  if wvec != t.tab_w then begin
    Array.fill t.dfull 0 t.nt false;
    Array.fill t.hfull 0 t.nb false;
    Array.fill t.bneck 0 (Array.length t.bneck) Float.nan;
    t.tab_w <- wvec
  end;
  for i = 0 to h - 1 do
    if hb.(i) >= 0 then read_hub_row t hb.(i)
  done;
  let hd = Array.make (h * h) infinity in
  let hmove = Array.make (h * h) base_leg in
  (* direct moves: base legs between base hubs, virtual edges
     (s'_k ↔ subset server) *)
  for i = 0 to h - 1 do
    hd.((i * h) + i) <- 0.0;
    for j = 0 to h - 1 do
      if i <> j && hb.(i) >= 0 && hb.(j) >= 0 then
        hd.((i * h) + j) <- t.hh.((hb.(i) * t.nb) + hb.(j))
    done
  done;
  (* hub j >= 2 is a subset server: its virtual edge to s'_k *)
  for j = 2 to h - 1 do
    let i = hb.(j) in
    let w = t.wv.(i) in
    if w < hd.(h + j) then begin
      hd.(h + j) <- w;
      hd.((j * h) + 1) <- w;
      hmove.(h + j) <- t.base_m + i;
      hmove.((j * h) + 1) <- t.base_m + i
    end
  done;
  (* Floyd–Warshall over the hubs *)
  for k = 0 to h - 1 do
    for i = 0 to h - 1 do
      for j = 0 to h - 1 do
        if hd.((i * h) + k) +. hd.((k * h) + j) < hd.((i * h) + j) then begin
          hd.((i * h) + j) <- hd.((i * h) + k) +. hd.((k * h) + j);
          hmove.((i * h) + j) <- via k
        end
      done
    done
  done;
  if Array.length t.vec < h then t.vec <- Array.make h infinity;
  t.metrics <- t.metrics + 1;
  { aux = t; id = t.metrics; slot = slot t (-1) subset; h; hb; hd; hmove; wvec }

(* [aux.phub] <- this metric's point -> hub map, the first hub on each
   point (-1 off the hubs); s'_k, point nt, is always hub 1 *)
let own_points sm =
  let t = sm.aux in
  if t.owner <> sm.id then begin
    Array.fill t.phub 0 t.nt (-1);
    for i = sm.h - 1 downto 0 do
      let p = t.ppos.(hub_node sm i) in
      if p >= 0 then t.phub.(p) <- i
    done;
    t.owner <- sm.id
  end

let rec hub_from sm node i =
  if i >= sm.h then -1
  else if hub_node sm i = node then i
  else hub_from sm node (i + 1)

(* the hub index of node [x] (point [px]); [own_points] has run *)
let[@inline] hub_of sm x px = if px >= 0 then sm.aux.phub.(px) else hub_from sm x 0

(* the request's [vec] <- the hub vector of extended node x (hub index
   [ix], or -1; point [px]): hd's row for a hub, or a_x(j) = min_i
   rx(h_i) + hd(i, j) over base hubs i for a non-hub x. Each row fills it
   before reading it, so no value outlives the row. *)
let fill_vec sm ix x px =
  let t = sm.aux in
  let h = sm.h and v = t.vec in
  if ix >= 0 then Array.blit sm.hd (ix * h) v 0 h
  else begin
    Array.fill v 0 h infinity;
    for i = 0 to h - 1 do
      let b = sm.hb.(i) in
      if b >= 0 then begin
        let rxi = to_base t x px b in
        for j = 0 to h - 1 do
          let c = rxi +. sm.hd.((i * h) + j) in
          if c < v.(j) then v.(j) <- c
        done
      end
    done
  end

(* [out.(k)] <- the distance from the row's node x (hub [ix], point
   [px]) to extended node y, off x's hub vector. Between two non-hub
   nodes, min over (i, j) of (rx(h_i) + hd(i, j)) + row_j(y) is taken as
   min over j of a_x(j) + row_j(y): rounded addition is monotone, so the
   inner minimum commutes with adding row_j(y), bit for bit. *)
let dist_into sm ix x px y out k =
  let t = sm.aux in
  let py = t.ppos.(y) in
  let iy = hub_of sm y py in
  let v = t.vec in
  if iy >= 0 then out.(k) <- v.(iy)
  else begin
    let best = ref (if ix >= 0 then infinity else between t x px y py) in
    for j = 0 to sm.h - 1 do
      let b = sm.hb.(j) in
      if b >= 0 then begin
        let c = v.(j) +. from_base t b y py in
        if c < !best then best := c
      end
    done;
    out.(k) <- !best
  end

(* a non-hub point's table rows are read the first time it heads a row *)
let fill_row sm x dst n out =
  own_points sm;
  let t = sm.aux in
  let px = t.ppos.(x) in
  let ix = hub_of sm x px in
  if ix < 0 && px >= 0 then read_point_row t px;
  fill_vec sm ix x px;
  for i = 0 to n - 1 do
    dist_into sm ix x px dst.(i) out i
  done

let dist sm x y =
  let out = [| 0.0 |] in
  fill_row sm x [| y |] 1 out;
  out.(0)

(* the engine's shortest base path u → v, edge by edge *)
let emit_leg sm u v emit =
  if not (Mcgraph.Paths.iter_path (Sp.spt sm.aux.engine u) v emit) then
    invalid_arg "Aux_graph: base leg without path"

(* expand the hub-level move (i, j) into concrete edge ids *)
let rec emit_hub sm i j emit =
  if i <> j then begin
    let m = sm.hmove.((i * sm.h) + j) in
    if m >= 0 then emit m
    else if m = base_leg then emit_leg sm (hub_node sm i) (hub_node sm j) emit
    else begin
      let k = via m in
      emit_hub sm i k emit;
      emit_hub sm k j emit
    end
  end

(* [emit] the edges of [path sm x y]. The argmin of [dist] is kept as
   hub indices (ci, cj): the walk x → h_ci, hubs ci ⇝ cj, h_cj → y, with
   a base leg at each end that is not itself a hub; ci = -1 is the
   direct base path. The scan is quadratic on purpose: it keeps the
   first least pair in (i, j) order, which the hub vector's per-j
   minimum does not record. *)
let iter_path sm x y emit =
  x = y
  || begin
    own_points sm;
    let t = sm.aux in
    let h = sm.h in
    let px = t.ppos.(x) and py = t.ppos.(y) in
    let ix = hub_of sm x px and iy = hub_of sm y py in
    let best = ref infinity and ci = ref (-1) and cj = ref (-1) in
    if ix >= 0 && iy >= 0 then begin
      best := sm.hd.((ix * h) + iy);
      ci := ix;
      cj := iy
    end
    else if ix >= 0 then begin
      for j = 0 to h - 1 do
        let b = sm.hb.(j) in
        if b >= 0 then begin
          let c = sm.hd.((ix * h) + j) +. from_base t b y py in
          if c < !best then begin
            best := c;
            ci := ix;
            cj := j
          end
        end
      done
    end
    else begin
      if px >= 0 then read_point_row t px;
      if iy >= 0 then begin
        for i = 0 to h - 1 do
          let b = sm.hb.(i) in
          if b >= 0 then begin
            let c = to_base t x px b +. sm.hd.((i * h) + iy) in
            if c < !best then begin
              best := c;
              ci := i;
              cj := iy
            end
          end
        done
      end
      else begin
        best := between t x px y py;
        for i = 0 to h - 1 do
          let bi = sm.hb.(i) in
          if bi >= 0 then begin
            let rxi = to_base t x px bi in
            for j = 0 to h - 1 do
              let bj = sm.hb.(j) in
              if bj >= 0 then begin
                let c = rxi +. sm.hd.((i * h) + j) +. from_base t bj y py in
                if c < !best then begin
                  best := c;
                  ci := i;
                  cj := j
                end
              end
            done
          end
        done
      end
    end;
    !best < infinity
    && begin
      if !ci < 0 then emit_leg sm x y emit
      else begin
        if ix < 0 then emit_leg sm x (hub_node sm !ci) emit;
        emit_hub sm !ci !cj emit;
        if iy < 0 then emit_leg sm (hub_node sm !cj) y emit
      end;
      true
    end
  end

let path sm x y =
  let acc = ref [] in
  if iter_path sm x y (fun e -> acc := e :: !acc) then Some (List.rev !acc)
  else None

(* KMB over the base graph plus the virtual edges as spokes of s'_k:
   edge [base_m + i] is (s'_k, bnode.(i)) at weight wv.(i). [bnode]'s
   last spoke, (s'_k, s_k), is no virtual edge, and no path emits it. A
   path emits only base edges and this subset's virtual edges, so every
   weight KMB reads is [weight sm]'s. The run's closure-MST bottleneck
   goes into the subset's slot, for [redundant]'s rule (a'). *)
let steiner_tree sm =
  let t = sm.aux in
  let tree =
    Mcgraph.Steiner.kmb_with_metric t.base ~spokes:t.bnode ~weights:sm.wvec
      ~spoke_weights:t.wv ~terminals:t.points ~row:(fill_row sm) ~path:(iter_path sm)
  in
  let b =
    match tree with
    | Some _ -> Mcgraph.Steiner.closure_bottleneck ()
    | None -> infinity
  in
  set_bottleneck sm.aux sm.slot b;
  tree

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

(* the largest finite value seen so far *)
let[@inline] raise_to m x = if x < infinity && x > m then x else m

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
        if t.wv.(i) < infinity then row t.bnode.(i) else [||])
  in
  (* the margin Online_cp.slack gives, taken against the largest finite
     distance the rule compares, so it dominates the rounding of every
     float sum in the metric *)
  let maxd = ref 1.0 in
  for a = 0 to nq - 1 do
    for b = 0 to nq - 1 do
      maxd := raise_to !maxd dqq.(a).(b)
    done
  done;
  for i = 0 to nc - 1 do
    let r = srow.(i) in
    if has r then begin
      maxd := raise_to !maxd t.wv.(i);
      for b = 0 to nq - 1 do
        maxd := raise_to !maxd r.(q.(b))
      done;
      for k = 0 to nc - 1 do
        maxd := raise_to !maxd r.(t.bnode.(k))
      done
    end
  done;
  let tol = 1e-9 *. !maxd in
  let in_q v = Array.exists (fun x -> x = v) q in
  (* (b) on Q × Q: u lies off every shortest path between Q's nodes *)
  let off_q =
    Array.init nc (fun i ->
        let su = srow.(i) in
        has su
        && (not (in_q t.bnode.(i)))
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
        let v = t.bnode.(j) in
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
  (* every walk of G_k^S that takes u's virtual edge and reaches a
     destination is at least this long *)
  let via =
    Array.init nc (fun i ->
        let su = srow.(i) in
        if not (has su) then infinity
        else begin
          let m = ref infinity in
          for p = 0 to t.nt - 1 do
            let x = su.(t.points.(p)) in
            if x < !m then m := x
          done;
          t.wv.(i) +. !m
        end)
  in
  { usable = !usable; nc; tol; srow; off_q; off_s; nw; beats; full; via }

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
let rec rows_off t d iu = function
  | [] -> true
  | v :: rest ->
    let iv = t.pos.(v) in
    (iv = iu || d.off_s.((iu * d.nc) + iv)) && rows_off t d iu rest

(* (a) at x: w_u + d(u, x) > w_v + d(v, x) + tol for some v ∈ R. The
   rule's min over R commutes with adding tol (rounded addition is
   monotone), so this is its [>] against the minimum, bit for bit *)
let rec beaten t d iu x = function
  | [] -> false
  | v :: rest ->
    let iv = t.pos.(v) in
    (iv <> iu
    && t.wv.(iu) +. d.srow.(iu).(x) > t.wv.(iv) +. d.srow.(iv).(x) +. d.tol)
    || beaten t d iu x rest

(* (b) on {v} × {v'} for the servers v' of R listed after v *)
let rec pairs_off t d iu v iv = function
  | [] -> true
  | v' :: rest ->
    let iv' = t.pos.(v') in
    (iv' = iu
    || d.srow.(iu).(v) +. d.srow.(iu).(v') > d.srow.(iv).(v') +. d.tol)
    && pairs_off t d iu v iv rest

(* (b) on R × R *)
let rec servers_off t d iu = function
  | [] -> true
  | v :: rest ->
    let iv = t.pos.(v) in
    (iv = iu || pairs_off t d iu v iv rest) && servers_off t d iu rest

(* (a) at each server of R *)
let rec beaten_at_servers t d iu all = function
  | [] -> true
  | v :: rest ->
    let iv = t.pos.(v) in
    (iv = iu || beaten t d iu v all) && beaten_at_servers t d iu all rest

(* (a) on Q: every node of Q has a server of R that beats u there *)
let rec union t d iu w acc = function
  | [] -> acc
  | v :: rest ->
    let iv = t.pos.(v) in
    union t d iu w
      (if iv = iu then acc else acc lor d.beats.((((iu * d.nc) + iv) * d.nw) + w))
      rest

let rec covers t d iu subset w =
  w >= d.nw
  || (union t d iu w 0 subset = d.full.(w) && covers t d iu subset (w + 1))

(* [subset] is skipped for u, counted under the rule that held; its
   KMB run is R's, pick for pick, so it takes R's bottleneck *)
let skip t subset iu rule =
  Obs.Counter.incr rule;
  set_bottleneck t (slot t (-1) subset) (bottleneck t (slot t iu subset));
  true

(* u is inert when (b) holds and (a) or (a') does *)
let rec exists_inert t d subset = function
  | [] -> false
  | u :: rest ->
    let iu = t.pos.(u) in
    if d.off_q.(iu) && rows_off t d iu subset && servers_off t d iu subset then
      if beaten_at_servers t d iu subset subset && covers t d iu subset 0 then
        skip t subset iu c_dominated
      else if d.via.(iu) > bottleneck t (slot t iu subset) +. d.tol then
        skip t subset iu c_bottleneck
      else exists_inert t d subset rest
    else exists_inert t d subset rest

let rec all_candidates t = function
  | [] -> true
  | v :: rest -> is_candidate t v && all_candidates t rest

let redundant t subset =
  match subset with
  | [] | [ _ ] -> false
  | _ ->
    if not (all_candidates t subset) then
      invalid_arg "Aux_graph.redundant: not a candidate server";
    let d = dominance t in
    d.usable && exists_inert t d subset subset

(* the server of the first root [r] in [roots], or -1 *)
let rec server_in r roots servers =
  match (roots, servers) with
  | r' :: roots, v :: servers -> if r' = r then v else server_in r roots servers
  | _ -> -1

(* The tree minus s'_k is one subtree per virtual edge: the base edges
   of its server's union-find set, rooted at the server on the base
   graph, where [Tree.root] refuses a cycle or a repeat. A
   destination's [onward] is its tree path from its server. Each
   server's source path is read once, where its virtual edge is
   charged, and shared by the routes through it. *)
let to_pseudo_tree t tree_edges =
  let req = t.req and g = t.base in
  let fail what = invalid_arg ("Aux_graph.to_pseudo_tree: " ^ what) in
  let uf = Mcgraph.Union_find.create (G.n g) in
  let find = Mcgraph.Union_find.find uf in
  let servers = ref [] and to_server = ref [] and uses = ref [] in
  List.iter
    (fun e ->
      if is_virtual_edge t e then begin
        let v = server_of_virtual_edge t e in
        servers := v :: !servers;
        match base_path t req.Sdn.Request.source v with
        | Some p ->
          to_server := (v, p) :: !to_server;
          uses := p @ !uses
        | None -> fail "unreachable server"
      end
      else begin
        ignore (Mcgraph.Union_find.union uf (G.edge_u g e) (G.edge_v g e));
        uses := e :: !uses
      end)
    tree_edges;
  (* no set may hold two servers (a cycle through s'_k) *)
  let roots = List.map find !servers in
  if roots = [] || List.length (List.sort_uniq Int.compare roots) < List.length roots then
    fail "not one subtree per server";
  let server_of x = server_in (find x) roots !servers in
  let under v e = (not (is_virtual_edge t e)) && server_of (G.edge_u g e) = v in
  if List.exists (under (-1)) tree_edges then fail "edge cut off from the virtual source";
  let dests = Array.of_list req.Sdn.Request.destinations in
  let onward = Array.make (Array.length dests) [] in
  List.iter
    (fun v ->
      Mcgraph.Tree.root g ~root:v (List.filter (under v) tree_edges);
      Array.iteri
        (fun i d -> if server_of d = v then onward.(i) <- Mcgraph.Tree.path_between v d)
        dests)
    !servers;
  let route_of i d =
    let v = server_of d in
    if v < 0 then fail "destination not spanned";
    let to_server = List.assoc v !to_server in
    (d, { Pseudo_tree.to_server; server = v; onward = onward.(i) })
  in
  Pseudo_tree.make ~request:req ~servers:!servers
    ~edge_uses:(Pseudo_tree.edge_uses_of_list !uses)
    ~routes:(List.mapi route_of req.Sdn.Request.destinations)
