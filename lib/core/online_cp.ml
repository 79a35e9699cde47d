module Paths = Mcgraph.Paths
module Sp = Mcgraph.Sp_engine
module Tree = Mcgraph.Tree
module Obs = Nfv_obs.Obs

(* shared process-wide counters ([Obs.Counter.make] is idempotent per
   name), diffed around each solve to attribute Dijkstra work here *)
let c_dijkstra_runs = Obs.Counter.make "dijkstra.runs"
let c_dijkstra_relax = Obs.Counter.make "dijkstra.relaxations"
let c_dijkstras = Obs.Counter.make "online_cp.dijkstras"
let c_relaxations = Obs.Counter.make "online_cp.relaxations"
let c_admitted = Obs.Counter.make "online_cp.admitted"
let c_rej_no_server = Obs.Counter.make "online_cp.rejected.no_feasible_server"
let c_rej_unreachable = Obs.Counter.make "online_cp.rejected.unreachable"
let c_rej_server_unreachable =
  Obs.Counter.make "online_cp.rejected.server_unreachable"
let c_rej_threshold = Obs.Counter.make "online_cp.rejected.over_threshold"
let c_rej_unallocatable = Obs.Counter.make "online_cp.rejected.unallocatable"

(* candidate-server pruning: servers whose distance lower bound lost to
   the incumbent and were never priced (KMB skipped), vs. servers priced
   late because the allocation fallback reached their bound after all *)
let c_pruned = Obs.Counter.make "online_cp.pruned.servers"
let c_pruned_late = Obs.Counter.make "online_cp.pruned.computed_late"

(* availability-aware pricing: per-epoch exposure recomputations and
   candidates blocked by the per-group spare-capacity floor *)
let c_avail_refreshes = Obs.Counter.make "avail.exposure_refreshes"
let c_avail_blocked = Obs.Counter.make "avail.reserve_blocked"

type params = {
  alpha : float;
  beta : float;
  sigma_v : float;
  sigma_e : float;
}

let default_params net =
  let base = Cost_model.default_base net in
  let sigma = Cost_model.default_sigma net in
  { alpha = base; beta = base; sigma_v = sigma; sigma_e = sigma }

(* ---- availability-aware pricing ----------------------------------------

   An [avail] value carries an SRLG partition (Fault.srlg_partition
   output, or any disjoint link grouping) and turns it into admission
   pressure two ways:

   - an exposure surcharge: each link's traversal weight gains
     [alpha * exposure(group)], where exposure is the allocated fraction
     of the group's aggregate bandwidth — traffic already riding the
     shared-risk group. Exposure is derived purely from the network's
     residuals, so it is a function of [Sdn.Network.weight_epoch]: the
     per-group cache below is recomputed exactly once per epoch and the
     surcharged weights stay pure between equal epoch readings, which is
     what keeps Sp_window's exactness contract intact (the [avail] value
     is folded into the family key whenever it changes the weights).

   - a spare-capacity floor: with [reserve = r > 0], a candidate whose
     allocation would leave some touched group's aggregate residual
     below [r * group capacity] is rejected before it can allocate.

   With [alpha = 0] the surcharge term is never evaluated and the family
   key is unchanged, so pricing — and every cached engine — is
   bit-identical to the baseline; with [reserve = 0] the floor never
   fires. That is the provable-equivalence switch the tests pin. *)

type avail = {
  av_groups : int array array;   (* normalized non-empty groups *)
  av_group_of : int array;       (* edge id -> group index, -1 = ungrouped *)
  av_group_cap : float array;    (* Σ link capacity per group, Mbps *)
  av_alpha : float;              (* surcharge per unit exposure *)
  av_reserve : float;            (* spare fraction kept free per group *)
  av_stamp : int;                (* distinguishes avail values in family keys *)
  mutable av_epoch : int;        (* epoch the exposure cache is valid at *)
  av_exposure : float array;     (* allocated fraction per group, in [0, 1] *)
}

(* family-key uniqueness across domains: Pool workers build their own
   avail values, so the stamp source must be race-free *)
let av_stamps = Atomic.make 0

let make_avail ?(alpha = 0.0) ?(reserve = 0.0) net groups =
  if not (Float.is_finite alpha) || alpha < 0.0 then
    invalid_arg "Online_cp.make_avail: alpha must be finite and >= 0";
  if not (reserve >= 0.0 && reserve < 1.0) then
    invalid_arg "Online_cp.make_avail: reserve outside [0, 1)";
  let m = Sdn.Network.m net in
  let group_of = Array.make m (-1) in
  let nonempty =
    Array.of_list
      (List.filter (fun l -> l <> []) (Array.to_list groups))
  in
  let groups_arr =
    Array.mapi
      (fun gi links ->
        List.iter
          (fun e ->
            if e < 0 || e >= m then
              invalid_arg "Online_cp.make_avail: edge id out of range";
            if group_of.(e) >= 0 then
              invalid_arg "Online_cp.make_avail: edge in two groups";
            group_of.(e) <- gi)
          links;
        Array.of_list links)
      nonempty
  in
  let group_cap =
    Array.map
      (Array.fold_left
         (fun acc e -> acc +. Sdn.Network.link_capacity net e)
         0.0)
      groups_arr
  in
  {
    av_groups = groups_arr;
    av_group_of = group_of;
    av_group_cap = group_cap;
    av_alpha = alpha;
    av_reserve = reserve;
    av_stamp = Atomic.fetch_and_add av_stamps 1;
    av_epoch = min_int;
    av_exposure = Array.make (Array.length groups_arr) 0.0;
  }

let avail_alpha av = av.av_alpha
let avail_reserve av = av.av_reserve
let avail_group_count av = Array.length av.av_groups
let avail_group_of av e =
  if e < 0 || e >= Array.length av.av_group_of then -1 else av.av_group_of.(e)

(* allocated fraction of group [gi]'s aggregate bandwidth, from the
   residuals alone (confiscated capacity counts as exposure: a group
   with a live fault reads as heavily exposed, which is the right
   steering signal). Epoch-keyed: all groups refresh together on the
   first read after any allocate/release/reset. *)
let exposure av net gi =
  let epoch = Sdn.Network.weight_epoch net in
  if av.av_epoch <> epoch then begin
    Array.iteri
      (fun i links ->
        let used =
          Array.fold_left
            (fun acc e ->
              acc
              +. (Sdn.Network.link_capacity net e
                 -. Sdn.Network.link_residual net e))
            0.0 links
        in
        av.av_exposure.(i) <-
          (if av.av_group_cap.(i) > 0.0 then used /. av.av_group_cap.(i)
           else 0.0))
      av.av_groups;
    av.av_epoch <- epoch;
    Obs.Counter.incr c_avail_refreshes
  end;
  av.av_exposure.(gi)

(* would this allocation leave every touched group's aggregate residual
   at or above its reserve floor? Groups the allocation does not touch
   cannot move, so only touched groups are summed. The floor comparison
   carries the usual relative ULP slack so a no-op reserve can never
   reject on float drift. *)
let reserve_admits av net (alloc : Sdn.Network.allocation) =
  if av.av_reserve <= 0.0 then true
  else begin
    let extra = Array.make (Array.length av.av_groups) 0.0 in
    let touched = ref [] in
    List.iter
      (fun (e, amt) ->
        let gi = avail_group_of av e in
        if gi >= 0 && amt > 0.0 then begin
          if extra.(gi) = 0.0 then touched := gi :: !touched;
          extra.(gi) <- extra.(gi) +. amt
        end)
      alloc.Sdn.Network.links;
    List.for_all
      (fun gi ->
        let residual =
          Array.fold_left
            (fun acc e -> acc +. Sdn.Network.link_residual net e)
            0.0 av.av_groups.(gi)
        in
        let floor = av.av_reserve *. av.av_group_cap.(gi) in
        residual -. extra.(gi) +. (1e-9 *. Float.max 1.0 floor) >= floor)
      !touched
  end

(* the committed-view twin of [reserve_admits]: the allocation already
   sits on the network, so the touched groups' residuals are read as
   they stand — no hypothetical subtraction. Callers holding a freshly
   committed allocation (Batch.plan's floor) can ask this directly
   instead of release / check / re-allocate, which bumped the weight
   epoch twice and flushed every Sp_window engine even when the floor
   passed. *)
let reserve_admits_after av net (alloc : Sdn.Network.allocation) =
  if av.av_reserve <= 0.0 then true
  else begin
    let seen = Array.make (Array.length av.av_groups) false in
    let touched = ref [] in
    List.iter
      (fun (e, amt) ->
        let gi = avail_group_of av e in
        if gi >= 0 && amt > 0.0 && not seen.(gi) then begin
          seen.(gi) <- true;
          touched := gi :: !touched
        end)
      alloc.Sdn.Network.links;
    List.for_all
      (fun gi ->
        let residual =
          Array.fold_left
            (fun acc e -> acc +. Sdn.Network.link_residual net e)
            0.0 av.av_groups.(gi)
        in
        let floor = av.av_reserve *. av.av_group_cap.(gi) in
        residual +. (1e-9 *. Float.max 1.0 floor) >= floor)
      !touched
  end

type rejection =
  | No_feasible_server
  | Unreachable
  | Server_unreachable
  | Over_threshold
  | Unallocatable

let rejection_to_string = function
  | No_feasible_server -> "no server with enough computing residual"
  | Unreachable -> "destinations unreachable under bandwidth residuals"
  | Server_unreachable ->
    "destinations reachable but every usable server is not"
  | Over_threshold -> "all candidates above admission thresholds"
  | Unallocatable -> "no candidate tree could reserve its resources"

type admitted = {
  tree : Pseudo_tree.t;
  server : int;
  lca : int;
  score : float;
}

type outcome = Admitted of admitted | Rejected of rejection

type candidate = {
  cand_server : int;
  cand_pos : int;             (* index in the usable-server order *)
  cand_tree : int list;
  cand_backtrack : int list;  (* edges of the v → u return path *)
  cand_lca : int;
  cand_score : float;
}

(* a server that survived the cheap checks but whose pricing (KMB tree)
   is deferred behind the incumbent bound *)
type pending = { p_pos : int; p_server : int; p_wv : float; p_bound : float }

(* Candidates used to be accumulated front-first over the usable order
   and stably sorted by score, so equal scores ranked by *descending*
   usable position; the explicit comparator preserves that tie-break now
   that pruning computes candidates out of order. *)
let cand_order a b =
  let c = compare a.cand_score b.cand_score in
  if c <> 0 then c else compare b.cand_pos a.cand_pos

let pending_order a b =
  let c = compare a.p_bound b.p_bound in
  if c <> 0 then c else compare b.p_pos a.p_pos

let min_by order = function
  | [] -> invalid_arg "Online_cp.min_by: empty"
  | x :: rest ->
    List.fold_left (fun m y -> if order y m < 0 then y else m) x rest

(* The pruning bound [dist s v + w_v] is a true lower bound on the
   candidate score [w_tree + w_back + w_v] in exact arithmetic (the KMB
   tree connects s and v, so w_tree ≥ dist s v, and w_back ≥ 0), but
   both sides are float sums taken in different orders; a relative slack
   absorbs that ULP drift so no candidate the exact bound would keep is
   ever skipped. The sliver of extra work is a few spurious KMB runs,
   never a changed outcome. *)
let slack x = x +. (1e-9 *. Float.max 1.0 (Float.abs x))

(* At zero load the exponential weights are exactly 0 and the linear
   unit costs are uniform on many topologies, which makes trees tie and
   routing hop-oblivious; a tiny per-edge epsilon breaks ties toward
   fewer hops in both modes without affecting the thresholds. *)
let hop_epsilon = 1e-6

let link_weight ?avail ~mode ~params net ~bandwidth e =
  if not (Sdn.Network.link_admits net e bandwidth) then infinity
  else
    let base =
      match mode with
      | `Exponential -> Cost_model.link_weight net ~base:params.beta e +. hop_epsilon
      | `Linear -> Cost_model.linear_link_weight net e +. hop_epsilon
    in
    (* [alpha = 0] takes the [_] branch: the surcharge term is never
       evaluated, so the result is the bit-identical baseline weight *)
    match avail with
    | Some av when av.av_alpha > 0.0 ->
      let gi = av.av_group_of.(e) in
      if gi < 0 then base else base +. (av.av_alpha *. exposure av net gi)
    | _ -> base

let server_weight ~mode ~params net ~demand v =
  match mode with
  | `Exponential -> Cost_model.server_weight net ~base:params.alpha v
  | `Linear -> Sdn.Network.server_unit_cost net v *. demand

let weight_family ?avail ~mode ~params () =
  let base =
    match mode with
    | `Exponential ->
      (* the exponential weights read [beta]; fold its bits into the key
         so different params never share an engine *)
      "online_cp.exp:" ^ Int64.to_string (Int64.bits_of_float params.beta)
    | `Linear -> "online_cp.lin"
  in
  (* the surcharge changes the weight function iff [alpha > 0]; only
     then does the family fork (stamp + alpha bits), so zero-alpha
     admits keep sharing engines with the baseline — the other half of
     the bit-identity argument above *)
  match avail with
  | Some av when av.av_alpha > 0.0 ->
    Printf.sprintf "%s+avail:%d:%s" base av.av_stamp
      (Int64.to_string (Int64.bits_of_float av.av_alpha))
  | _ -> base

let admit_impl ~mode ~params ~window ~prune ~avail net request =
  let params =
    match params with Some p -> p | None -> default_params net
  in
  let g = Sdn.Network.graph net in
  let b = request.Sdn.Request.bandwidth in
  let s = request.Sdn.Request.source in
  let demand = Sdn.Request.demand_mhz request in
  let link_w e = link_weight ?avail ~mode ~params net ~bandwidth:b e in
  let server_w v = server_weight ~mode ~params net ~demand v in
  let thresholds_on = mode = `Exponential in
  let usable =
    List.filter (fun v -> Sdn.Network.server_admits net v demand) (Sdn.Network.servers net)
  in
  if usable = [] then Rejected No_feasible_server
  else begin
    (* one lazy Dijkstra per terminal, shared by every candidate server;
       the engine is keyed by the network's weight epoch, so the
       load-dependent exponential weights invalidate on allocate/release
       rather than the caller rebuilding state from scratch. When the
       caller runs a whole admission window, the engine itself is shared
       across requests of the same weight class (Sp_window's exactness
       contract), so a request following a rejection reuses cached trees
       instead of starting cold. *)
    let terminals = List.sort_uniq compare (s :: request.Sdn.Request.destinations) in
    let eng =
      match window with
      | Some w ->
        let family = weight_family ?avail ~mode ~params () in
        Sp_window.engine w ~family
          ~bucket:(Sp_window.bucket w ~bandwidth:b)
          ~weight:link_w
      | None ->
        Sp.create g ~weight:link_w
          ~epoch:(fun () -> Sdn.Network.weight_epoch net)
    in
    List.iter (fun t -> ignore (Sp.spt eng t)) terminals;
    (* non-terminal sources (candidate servers) answer from the terminal
       end's tree by symmetry, so servers never cost a Dijkstra. The
       split is on membership in *this* request's terminal set, not on
       what the engine happens to have cached: a shared engine may hold
       trees for other requests' terminals, and answering from those
       would pick different (equal-cost) paths than the per-request
       engine did. *)
    let is_terminal x = List.mem x terminals in
    let dist x y =
      if is_terminal x then (Sp.spt eng x).Paths.dist.(y)
      else (Sp.spt eng y).Paths.dist.(x)
    in
    let path x y =
      if is_terminal x then Paths.path_edges g (Sp.spt eng x) y
      else Option.map List.rev (Paths.path_edges g (Sp.spt eng y) x)
    in
    let reachable =
      let spt_s = Sp.spt eng s in
      List.for_all
        (fun d -> spt_s.Paths.dist.(d) < infinity)
        request.Sdn.Request.destinations
    in
    if not reachable then Rejected Unreachable
    else begin
      let saw_threshold_violation = ref false in
      let saw_server_unreachable = ref false in
      (* cheap screening pass: node threshold and source-to-server
         reachability (an O(1) read off s's tree). The expensive part —
         the KMB tree and the backtrack — is deferred per server. *)
      let screen pos v =
        let wv = server_w v in
        if thresholds_on && wv >= params.sigma_v then begin
          saw_threshold_violation := true;
          None
        end
        else begin
          let dsv = dist s v in
          if dsv = infinity then begin
            saw_server_unreachable := true;
            None
          end
          else Some { p_pos = pos; p_server = v; p_wv = wv; p_bound = dsv +. wv }
        end
      in
      let screened = List.filter_map Fun.id (List.mapi screen usable) in
      (* price trees off the engine's weight vector for this epoch — the
         values [link_w] returns, without re-evaluating it per edge *)
      let wvec = Sp.weights eng in
      let link_wv e = wvec.(e) in
      let compute p =
        let v = p.p_server in
        let terms = List.sort_uniq compare (v :: terminals) in
        match
          Mcgraph.Steiner.kmb_with_metric g ~weight:link_wv ~terminals:terms
            ~dist ~path
        with
        | None -> None
        | Some tree_edges ->
          let w_tree = Mcgraph.Steiner.tree_cost ~weight:link_wv tree_edges in
          if thresholds_on && w_tree >= params.sigma_e then begin
            saw_threshold_violation := true;
            None
          end
          else begin
            let rooted = Tree.of_edges g ~root:s tree_edges in
            let u = Tree.lca_many rooted (v :: request.Sdn.Request.destinations) in
            let backtrack = Tree.path_up rooted v ~ancestor:u in
            let w_back = Mcgraph.Steiner.tree_cost ~weight:link_wv backtrack in
            let score = w_tree +. w_back +. p.p_wv in
            Some
              {
                cand_server = v;
                cand_pos = p.p_pos;
                cand_tree = tree_edges;
                cand_backtrack = backtrack;
                cand_lca = u;
                cand_score = score;
              }
          end
      in
      (* price servers in usable order, skipping any whose lower bound
         already loses to the best complete candidate so far; the
         incumbent only improves, so a deferred server's bound also
         exceeds the final best score *)
      let computed = ref [] in
      let deferred = ref [] in
      let incumbent = ref infinity in
      List.iter
        (fun p ->
          if prune && p.p_bound > slack !incumbent then
            deferred := p :: !deferred
          else
            match compute p with
            | None -> ()
            | Some c ->
              if c.cand_score < !incumbent then incumbent := c.cand_score;
              computed := c :: !computed)
        screened;
      let try_alloc c =
        let v = c.cand_server in
        let rooted = Tree.of_edges g ~root:s c.cand_tree in
        let to_server = List.rev (Tree.path_up rooted v ~ancestor:s) in
        let route_of d =
          (* the processed copy climbs only to LCA(v, d) — a prefix of
             the reserved v → u backtrack — before descending, so no
             edge carries more traffic than Algorithm 2 accounts for *)
          let onward = Tree.path_between rooted v d in
          (d, { Pseudo_tree.to_server; server = v; onward })
        in
        let routes = List.map route_of request.Sdn.Request.destinations in
        let tree =
          Pseudo_tree.make ~request ~servers:[ v ]
            ~edge_uses:
              (Pseudo_tree.edge_uses_of_list (c.cand_tree @ c.cand_backtrack))
            ~routes
        in
        let alloc = Pseudo_tree.allocation tree in
        (* the spare-capacity floor fires before the allocation attempt:
           a blocked candidate behaves exactly like a failed allocation
           (no side effects, the select loop moves on), so a run that
           ends with every candidate blocked is an ordinary
           [Unallocatable] rejection *)
        let blocked =
          match avail with
          | Some av when not (reserve_admits av net alloc) ->
            Obs.Counter.incr c_avail_blocked;
            true
          | _ -> false
        in
        if blocked then None
        else
          match Sdn.Network.allocate net alloc with
          | Ok () ->
            Some (Admitted { tree; server = v; lca = c.cand_lca; score = c.cand_score })
          | Error _ -> None
      in
      (* Walk candidates in score order (ties by the historical order,
         see [cand_order]) attempting allocation, materialising deferred
         servers whenever their bound says they could still rank at or
         before the current front-runner. Failed allocations have no
         side effects, so skipping servers that would only have been
         failed attempts is unobservable. *)
      let rec select computed deferred =
        match computed with
        | [] -> (
          match deferred with
          | [] -> Rejected Unallocatable
          | _ ->
            (* the fallback chain outlived every priced candidate;
               materialise the most promising deferred server *)
            let next = min_by pending_order deferred in
            let deferred = List.filter (fun p -> p.p_pos <> next.p_pos) deferred in
            Obs.Counter.incr c_pruned_late;
            (match compute next with
            | None -> select [] deferred
            | Some c -> select [ c ] deferred))
        | _ -> (
          let best = min_by cand_order computed in
          let ready, still =
            List.partition (fun p -> p.p_bound <= slack best.cand_score) deferred
          in
          if ready <> [] then begin
            List.iter (fun _ -> Obs.Counter.incr c_pruned_late) ready;
            let newly = List.filter_map compute ready in
            select (newly @ computed) still
          end
          else
            match try_alloc best with
            | Some outcome ->
              Obs.Counter.add c_pruned (List.length deferred);
              outcome
            | None ->
              select
                (List.filter (fun c -> c.cand_pos <> best.cand_pos) computed)
                deferred)
      in
      match !computed with
      | [] ->
        (* nothing priced ⟹ nothing deferred (no incumbent, no pruning),
           so the attribution below sees the complete picture *)
        if !saw_threshold_violation then Rejected Over_threshold
        else if screened = [] && !saw_server_unreachable then
          Rejected Server_unreachable
        else Rejected Unreachable
      | cands -> select cands !deferred
    end
  end

let admit ?(mode = `Exponential) ?params ?window ?(prune = true) ?avail net
    request =
  Obs.Span.run "online_cp.admit" @@ fun () ->
  let runs0 = Obs.Counter.value c_dijkstra_runs in
  let relax0 = Obs.Counter.value c_dijkstra_relax in
  let outcome = admit_impl ~mode ~params ~window ~prune ~avail net request in
  Obs.Counter.add c_dijkstras (Obs.Counter.value c_dijkstra_runs - runs0);
  Obs.Counter.add c_relaxations (Obs.Counter.value c_dijkstra_relax - relax0);
  (match outcome with
  | Admitted _ -> Obs.Counter.incr c_admitted
  | Rejected No_feasible_server -> Obs.Counter.incr c_rej_no_server
  | Rejected Unreachable -> Obs.Counter.incr c_rej_unreachable
  | Rejected Server_unreachable -> Obs.Counter.incr c_rej_server_unreachable
  | Rejected Over_threshold -> Obs.Counter.incr c_rej_threshold
  | Rejected Unallocatable -> Obs.Counter.incr c_rej_unallocatable);
  outcome
