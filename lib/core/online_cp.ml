module Paths = Mcgraph.Paths
module Sp = Mcgraph.Sp_engine
module Tree = Mcgraph.Tree
module Obs = Nfv_obs.Obs

let c_dijkstras = Obs.Counter.make "online_cp.dijkstras"
let c_relaxations = Obs.Counter.make "online_cp.relaxations"
(* every [admit] call, each ending in [admitted] or one [rejected.*] *)
let c_admits = Obs.Counter.make "online_cp.admits"
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

(* proved rejections: servers whose tree the tripod bound (or the
   source's own distances) proved over the edge threshold before KMB,
   and requests the window's component labels proved unreachable
   before any Dijkstra *)
let c_pruned_threshold = Obs.Counter.make "online_cp.pruned.over_threshold"
let c_pruned_unreachable = Obs.Counter.make "online_cp.pruned.unreachable"

(* availability-aware pricing: per-epoch exposure recomputations *)
let c_avail_refreshes = Obs.Counter.make "avail.exposure_refreshes"

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
   output, or any disjoint link grouping) and turns it into an exposure
   surcharge: each link's traversal weight gains [alpha * exposure(group)],
   where exposure is the allocated fraction of the group's aggregate
   bandwidth — traffic already riding the shared-risk group. Exposure is
   derived purely from the network's residuals, so it is a function of
   [Sdn.Network.weight_epoch]: the per-group cache below is recomputed
   exactly once per epoch and the surcharged weights stay pure between
   equal epoch readings, which is what keeps Sp_window's exactness
   contract intact (the [avail] value is folded into the family key
   whenever it changes the weights).

   With [alpha = 0] the surcharge term is never evaluated and the family
   key is unchanged, so pricing — and every cached engine — is
   bit-identical to the baseline. That is the provable-equivalence switch
   the tests pin. *)

type avail = {
  av_groups : int array array;   (* normalized non-empty groups *)
  av_group_of : int array;       (* edge id -> group index, -1 = ungrouped *)
  av_group_cap : float array;    (* Σ link capacity per group, Mbps *)
  av_alpha : float;              (* surcharge per unit exposure *)
  av_stamp : int;                (* distinguishes avail values in family keys *)
  mutable av_epoch : int;        (* epoch the exposure cache is valid at *)
  av_exposure : float array;     (* allocated fraction per group, in [0, 1] *)
}

(* family-key uniqueness across domains: Pool workers build their own
   avail values, so the stamp source must be race-free *)
let av_stamps = Atomic.make 0

let make_avail ?(alpha = 0.0) net groups =
  if not (Float.is_finite alpha) || alpha < 0.0 then
    invalid_arg "Online_cp.make_avail: alpha must be finite and >= 0";
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
    av_stamp = Atomic.fetch_and_add av_stamps 1;
    av_epoch = min_int;
    av_exposure = Array.make (Array.length groups_arr) 0.0;
  }

let avail_alpha av = av.av_alpha
let avail_group_count av = Array.length av.av_groups
let avail_links av = Array.length av.av_group_of
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

(* A candidate keeps its KMB tree as the edge list, rooted again by the
   one [try_alloc] tries. *)
type candidate = {
  cand_server : int;
  cand_pos : int;             (* index in the usable-server order *)
  cand_edges : int list;      (* the KMB tree *)
  cand_lca : int;             (* LCA of the server and the destinations *)
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
  let c = Float.compare a.cand_score b.cand_score in
  if c <> 0 then c else Int.compare b.cand_pos a.cand_pos

let pending_order a b =
  let c = Float.compare a.p_bound b.p_bound in
  if c <> 0 then c else Int.compare b.p_pos a.p_pos

(* [Array.mem] on ints without the polymorphic compare *)
let rec mem_from x a i = i < Array.length a && (a.(i) = x || mem_from x a (i + 1))
let mem_int x a = mem_from x a 0

(* [emit] each edge from [v] up [t]'s parents to its source, in travel
   order *)
let emit_up (t : Paths.spt) v emit =
  let v = ref v in
  while !v <> t.source do
    emit t.parent_edge.(!v);
    v := t.parent.(!v)
  done

(* the sorted, duplicate-free [terms] with [x] added: [terms] itself
   when it holds [x] *)
let with_node terms x =
  let n = Array.length terms in
  let at = ref 0 in
  while !at < n && terms.(!at) < x do
    incr at
  done;
  if !at < n && terms.(!at) = x then terms
  else begin
    let out = Array.make (n + 1) x in
    Array.blit terms 0 out 0 !at;
    Array.blit terms !at out (!at + 1) (n - !at);
    out
  end

(* Σ w.(e) over [edges] from 0.0 in list order, the sum
   [Steiner.tree_cost] takes, in an unboxed accumulator *)
let sum_weights w edges =
  let acc = ref 0.0 and rest = ref edges in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | e :: tl ->
      acc := !acc +. w.(e);
      rest := tl
  done;
  !acc

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

(* the weight model of one run: nothing outside this module reads its
   model fields (callers read at most [window]), so a new pricing input
   is one more field here *)
type pricing = {
  mode : [ `Exponential | `Linear ];
  params : params;
  avail : avail option;
  window : Sp_window.t;
  family : string;
  prices : Sp_window.prices;
}

(* the price family: everything a link's base price reads besides its
   capacity and residual *)
let base_family mode params =
  match mode with
  | `Exponential ->
    (* the exponential weights read [beta]; fold its bits into the key
       so different params never share an engine or a price table *)
    "online_cp.exp:" ^ Int64.to_string (Int64.bits_of_float params.beta)
  | `Linear -> "online_cp.lin"

let base_price mode params net =
  match mode with
  | `Exponential ->
    fun e -> Cost_model.link_weight net ~base:params.beta e +. hop_epsilon
  | `Linear -> fun e -> Cost_model.linear_link_weight net e +. hop_epsilon

let weight_family base avail =
  (* the surcharge changes the weight function iff [alpha > 0]; only
     then does the family fork (stamp + alpha bits), so zero-alpha
     admits keep sharing engines with the baseline — the other half of
     the bit-identity argument above *)
  match avail with
  | Some av when av.av_alpha > 0.0 ->
    Printf.sprintf "%s+avail:%d:%s" base av.av_stamp
      (Int64.to_string (Int64.bits_of_float av.av_alpha))
  | _ -> base

let pricing ?avail ~mode ~params window =
  let net = Sp_window.net window in
  (match avail with
  | Some av when avail_links av <> Sdn.Network.m net ->
    invalid_arg "Online_cp.pricing: avail built over a different network"
  | _ -> ());
  let base = base_family mode params in
  {
    mode;
    params;
    avail;
    window;
    family = weight_family base avail;
    prices = Sp_window.prices window ~family:base ~price:(base_price mode params net);
  }

let link_weight p net ~bandwidth e =
  if not (Sdn.Network.link_admits net e bandwidth) then infinity
  else
    let base = Sp_window.price p.prices e in
    (* [alpha = 0] takes the [_] branch: the surcharge term is never
       evaluated, so the result is the bit-identical baseline weight *)
    match p.avail with
    | Some av when av.av_alpha > 0.0 ->
      let gi = av.av_group_of.(e) in
      if gi < 0 then base else base +. (av.av_alpha *. exposure av net gi)
    | _ -> base

let server_weight p ~demand v =
  let net = Sp_window.net p.window in
  match p.mode with
  | `Exponential -> Cost_model.server_weight net ~base:p.params.alpha v
  | `Linear -> Sdn.Network.server_unit_cost net v *. demand

(* [bucket] is the window's feasibility bucket for [bandwidth]; admission
   counts it once and also reads the component labels with it *)
let engine_at p ~bucket ~bandwidth =
  let net = Sp_window.net p.window in
  Sp_window.engine p.window ~family:p.family ~bucket
    ~weight:(fun e -> link_weight p net ~bandwidth e)

let engine p ~bandwidth =
  engine_at p ~bucket:(Sp_window.bucket p.window ~bandwidth) ~bandwidth

let admit_impl ~prune p request =
  let net = Sp_window.net p.window and params = p.params in
  let g = Sdn.Network.graph net in
  let b = request.Sdn.Request.bandwidth in
  let s = request.Sdn.Request.source in
  let destinations = request.Sdn.Request.destinations in
  let demand = Sdn.Request.demand_mhz request in
  let server_w v = server_weight p ~demand v in
  let thresholds_on = p.mode = `Exponential in
  let usable =
    List.filter (fun v -> Sdn.Network.server_admits net v demand) (Sdn.Network.servers net)
  in
  if usable = [] then Rejected No_feasible_server
  else begin
    let bucket = Sp_window.bucket p.window ~bandwidth:b in
    (* A link prices infinite exactly when it cannot admit [b], so a
       destination outside the source's component of the admitting links
       is at distance infinity: the reachability check below would reject
       [Unreachable] after a source Dijkstra. The window's labels prove
       that first, at the same point of the decision. *)
    let labelled_apart =
      prune && not (Sp_window.connects p.window ~bucket ~bandwidth:b s destinations)
    in
    if labelled_apart then begin
      Obs.Counter.incr c_pruned_unreachable;
      Rejected Unreachable
    end
    else begin
      (* at most one lazy Dijkstra per terminal, run on its first query
         and shared by every candidate server: the source's tree comes
         first (the reachability check below), so an [Unreachable]
         rejection costs one Dijkstra. The engine is keyed by the
         network's weight epoch, so the load-dependent exponential
         weights invalidate on allocate/release rather than the caller
         rebuilding state from scratch. The engine comes from the
         pricing's window, so it is shared across the requests of one
         run in the same weight class (Sp_window's exactness contract),
         and a request following a rejection reuses cached trees instead
         of starting cold. *)
      let terminals = Array.of_list (List.sort_uniq Int.compare (s :: destinations)) in
      let eng = engine_at p ~bucket ~bandwidth:b in
      (* non-terminal sources (candidate servers) answer from the terminal
         end's tree by symmetry, so servers never cost a Dijkstra. The
         split is on membership in *this* request's terminal set, not on
         what the engine happens to have cached: a shared engine may hold
         trees for other requests' terminals, and answering from those
         would pick different (equal-cost) paths than the per-request
         engine did. *)
      let is_terminal x = mem_int x terminals in
      (* KMB's metric, a row at a time *)
      let row x dst n out =
        if is_terminal x then begin
          (* looked up once per row, and not at all for an empty one *)
          if n > 0 then begin
            let rx = (Sp.spt eng x).Paths.dist in
            for i = 0 to n - 1 do
              out.(i) <- rx.(dst.(i))
            done
          end
        end
        else
          for i = 0 to n - 1 do
            out.(i) <- (Sp.spt eng dst.(i)).Paths.dist.(x)
          done
      in
      let path x y emit =
        if is_terminal x then Paths.iter_path (Sp.spt eng x) y emit
        else
          (* [x]'s way up [y]'s tree is the x → y path in travel order *)
          let t = Sp.spt eng y in
          t.Paths.dist.(x) < infinity && (emit_up t x emit; true)
      in
      (* the bounds below read distances as rows: the source's once, each
         destination's on first need (a Dijkstra KMB would run anyway) *)
      let from_s = (Sp.spt eng s).Paths.dist in
      let reachable = List.for_all (fun d -> from_s.(d) < infinity) destinations in
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
            let dsv = from_s.(v) in
            if dsv = infinity then begin
              saw_server_unreachable := true;
              None
            end
            else Some { p_pos = pos; p_server = v; p_wv = wv; p_bound = dsv +. wv }
          end
        in
        let screened = List.filter_map Fun.id (List.mapi screen usable) in
        let sigma_e = slack params.sigma_e in
        let dests = Array.of_list destinations in
        let far = ref 0.0 in
        for i = 0 to Array.length dests - 1 do
          far := Float.max !far from_s.(dests.(i))
        done;
        let far = !far in
        (* Every candidate tree contains s and each destination d, so it
           weighs at least [far], the largest d(s, d); [far] beyond σ_e puts
           every tree over the edge threshold. With a screened server left,
           the naive run prices it, sees the violation and rejects
           [Over_threshold] — the same answer, reached here without a KMB
           run. *)
        if prune && thresholds_on && screened <> [] && far > sigma_e then begin
          Obs.Counter.add c_pruned_threshold (List.length screened);
          Rejected Over_threshold
        end
        else begin
          let dest_rows = Array.make (Array.length dests) [||] in
          let dest_row i =
            if Array.length dest_rows.(i) = 0 then
              dest_rows.(i) <- (Sp.spt eng dests.(i)).Paths.dist;
            dest_rows.(i)
          in
          (* The tripod lemma (DESIGN.md §11): a tree containing s, v and d
             weighs at least (d(s,v) + d(v,d) + d(s,d)) / 2, and at least
             d(s,v). A bound beyond [slack σ_e] proves the KMB tree would
             fail the edge threshold. By the triangle inequality no tripod
             bound exceeds d(s,v) + [far], so the scan runs only when that
             sum does; skipping it only ever leaves the server to KMB. *)
          let proved_over v =
            let dsv = from_s.(v) in
            let over = ref (dsv > sigma_e) and i = ref 0 in
            if dsv +. far > sigma_e then
              while (not !over) && !i < Array.length dests do
                let d = dests.(!i) in
                over := (dsv +. (dest_row !i).(v) +. from_s.(d)) /. 2.0 > sigma_e;
                incr i
              done;
            !over
          in
          (* price trees off the engine's weight vector for this epoch — the
             values [link_weight] returns, without re-evaluating it per edge *)
          let wvec = Sp.weights eng in
          let compute p =
            let v = p.p_server in
            if prune && thresholds_on && proved_over v then begin
              Obs.Counter.incr c_pruned_threshold;
              saw_threshold_violation := true;
              None
            end
            else
              match
                Mcgraph.Steiner.kmb_with_metric g ~spokes:[||] ~weights:wvec
                  ~spoke_weights:[||] ~terminals:(with_node terminals v) ~row ~path
              with
              | None -> None
              | Some tree_edges ->
                let w_tree = sum_weights wvec tree_edges in
                if thresholds_on && w_tree >= params.sigma_e then begin
                  saw_threshold_violation := true;
                  None
                end
                else begin
                  (* the v → u backtrack is summed in its travel order,
                     as [Tree.path_up] lists it, without building the
                     list *)
                  Tree.root g ~root:s tree_edges;
                  let u = Tree.lca v destinations in
                  let w_back = ref 0.0 and x = ref v in
                  while !x <> u do
                    w_back := !w_back +. wvec.(Tree.parent_edge !x);
                    x := Tree.parent !x
                  done;
                  let score = w_tree +. !w_back +. p.p_wv in
                  Some
                    {
                      cand_server = v;
                      cand_pos = p.p_pos;
                      cand_edges = tree_edges;
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
            (* every copy is processed at [v]; it climbs only to LCA(v, d)
               — a prefix of the reserved v → u backtrack — before
               descending, so no edge carries more traffic than
               Algorithm 2 accounts for *)
            let tree =
              Pseudo_tree.of_support g ~support:c.cand_edges ~request
                ~server_of:(fun _ -> v)
            in
            match Sdn.Network.allocate net (Pseudo_tree.allocation tree) with
            | Ok () ->
              Some
                (Admitted
                   { tree; server = v; lca = c.cand_lca; score = c.cand_score })
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
    end
  end

let admit ?(prune = true) p request =
  Obs.Counter.incr c_admits;
  let outcome =
    Paths.attributed "online_cp.admit" ~dijkstras:c_dijkstras
      ~relaxations:c_relaxations (fun () -> admit_impl ~prune p request)
  in
  (match outcome with
  | Admitted _ -> Obs.Counter.incr c_admitted
  | Rejected No_feasible_server -> Obs.Counter.incr c_rej_no_server
  | Rejected Unreachable -> Obs.Counter.incr c_rej_unreachable
  | Rejected Server_unreachable -> Obs.Counter.incr c_rej_server_unreachable
  | Rejected Over_threshold -> Obs.Counter.incr c_rej_threshold
  | Rejected Unallocatable -> Obs.Counter.incr c_rej_unallocatable);
  outcome
