(** Algorithm 2, [Online_CP]: online admission of NFV-enabled multicast
    requests with K = 1 and an O(log |V|) competitive ratio (§V).

    Per request: compute normalised exponential weights
    [w_e(k) = β^{1−B_e(k)/B_e} − 1] and [w_v(k) = α^{1−C_v(k)/C_v} − 1];
    for every server [v] below the node threshold, find a KMB Steiner
    tree over [{s_k, v} ∪ D_k]; check the edge threshold; account for the
    processed packet's backtrack from [v] to the aggregate lowest common
    ancestor [u = LCA(v, d_1, …)] (step 10); admit the cheapest
    candidate and reserve its resources.

    The [`Linear] mode replaces the exponential weights by load-oblivious
    unit costs and disables the thresholds — the ablation showing why the
    exponential model balances load (§V-A). *)

type params = {
  alpha : float;    (** node cost base, paper: 2|V| *)
  beta : float;     (** edge cost base, paper: 2|V| *)
  sigma_v : float;  (** node admission threshold, paper: |V| − 1 *)
  sigma_e : float;  (** edge admission threshold, paper: |V| − 1 *)
}

val default_params : Sdn.Network.t -> params

type rejection =
  | No_feasible_server   (** Case 1: computing residual insufficient everywhere *)
  | Unreachable          (** Case 2: no tree under the bandwidth residuals *)
  | Server_unreachable
      (** Case 2': destinations reachable from the source, but no usable
          server is — previously misreported as {!Unreachable}, which
          corrupted the [online_cp.rejected.*] attribution *)
  | Over_threshold       (** Case 3: every candidate violated σ_v or σ_e *)
  | Unallocatable        (** trees found but none could atomically reserve *)

val rejection_to_string : rejection -> string

type admitted = {
  tree : Pseudo_tree.t;
  server : int;
  lca : int;           (** the backtrack target [u] *)
  score : float;       (** normalised weight of the admitted structure *)
}

type outcome = Admitted of admitted | Rejected of rejection

(** {1 Availability-aware pricing}

    Admission is otherwise blind to the failure model the dynamic
    simulator injects: it prices links only by their own residuals, so
    correlated SRLG cuts land on trees that were routed straight through
    one shared-risk group. An {!avail} value — built from a
    {!Sdn.Fault.srlg_partition} (or any disjoint link grouping) — makes
    the failure model part of the price through an {e exposure
    surcharge}: each grouped link's traversal weight gains
    [alpha × exposure(group)], where exposure is the allocated fraction
    of the group's aggregate bandwidth (live traffic already riding the
    shared-risk group; confiscated capacity counts, so a group with an
    active fault reads heavily exposed). Exposure is derived from
    residuals alone and cached per {!Sdn.Network.weight_epoch}, so
    surcharged weights remain pure between equal epoch readings —
    {!Sp_window}'s exactness contract survives because {!engine} forks
    the engine family (stamp + [alpha] bits) exactly when the surcharge
    changes the weights. Availability is a price, never a gate: an
    [avail] rejects no candidate on its own.

    With [alpha = 0] the surcharge term is never evaluated and the
    family key is unchanged, so admission under such an [avail] is
    {e bit-identical} to the baseline
    (equivalence property in [test/test_avail.ml], same pattern as
    [?prune:false]). The [pruned.*] lower-bound screen stays sound under
    any [alpha]: the surcharge only adds non-negative per-edge terms, so
    [dist s v + w_v] under surcharged distances still lower-bounds the
    surcharged candidate score. *)

type avail
(** An SRLG-exposure pricing configuration over one network. *)

val make_avail : ?alpha:float -> Sdn.Network.t -> int list array -> avail
(** [make_avail ~alpha net groups] over disjoint link groups (empty
    groups are dropped; links absent from every group carry no
    surcharge). Default [alpha = 0.] — the provably-neutral
    configuration. Raises [Invalid_argument] when [alpha] is negative or
    non-finite, an edge id is out of range, or an edge appears in two
    groups. *)

val avail_alpha : avail -> float
val avail_group_count : avail -> int
(** Number of (non-empty) groups after normalization. *)

val avail_links : avail -> int
(** Link count of the network the value was built over; an [avail] is
    only meaningful on a network with exactly that many links. *)

val avail_group_of : avail -> int -> int
(** Group index of an edge, [-1] for ungrouped or out-of-range ids. *)

val exposure : avail -> Sdn.Network.t -> int -> float
(** Allocated fraction of a group's aggregate bandwidth, in [[0, 1]]
    ([Σ (capacity − residual) / Σ capacity] over the group's links).
    Cached per {!Sdn.Network.weight_epoch}; the first read after an
    epoch bump refreshes every group (telemetry:
    [avail.exposure_refreshes]). *)

(** {1 The pricing context}

    One value fixes the weight model every decision of a run prices
    against: the mode, the params, the optional {!avail} and the
    {!Sp_window} of cached shortest-path engines. {!admit} prices with
    it, and other components (notably {!Repair}) search with the same
    value, so they price {e identically} and share engine families with
    admission — same family key and same weight closure at an equal
    epoch means the window's exactness contract lets cached Dijkstra
    trees flow both ways. Only this module reads the weight model's
    fields (callers read at most [window]); a new pricing input is a new
    field, not a new argument on every caller. *)

type pricing = private {
  mode : [ `Exponential | `Linear ];
  params : params;
  avail : avail option;
  window : Sp_window.t;
  family : string;  (** the engine family key, built once *)
  prices : Sp_window.prices;
      (** the window's base link prices for [mode] and [β] *)
}

val pricing :
  ?avail:avail ->
  mode:[ `Exponential | `Linear ] ->
  params:params ->
  Sp_window.t ->
  pricing
(** [pricing ?avail ~mode ~params window] prices over
    [Sp_window.net window]. Raises [Invalid_argument] when [avail] was
    built by {!make_avail} over a network with a different link count.
    A fresh window per request gives each admit a private engine; one
    window for a whole run lets admits share cached trees (outcomes are
    identical either way, see {!Sp_window}). *)

val engine : pricing -> bandwidth:float -> Mcgraph.Sp_engine.t
(** The shortest-path engine {!admit} searches for a request needing
    [bandwidth] Mbps. A link weighs [infinity] when its residual cannot
    admit the bandwidth, otherwise the exponential
    ([β^{1−B_e(k)/B_e} − 1]) or linear unit cost, plus a hop epsilon
    that breaks zero-load ties toward fewer hops, plus — with [avail] at
    [alpha > 0] — the exposure surcharge [alpha × exposure(group)] on
    grouped links. Weights read residual state, so they are pure only
    between equal {!Sdn.Network.weight_epoch} readings (the exposure
    cache is keyed on the same epoch). The base price, before the
    surcharge, comes from the window's price table for the mode and
    [β] ({!Sp_window.prices}), so a link is re-priced only after its
    residual changed.

    The engine comes from {!Sp_window.engine} under a family key that
    folds in [β]'s bits (exponential mode) and, with [avail] at
    [alpha > 0], the avail value's unique stamp and [alpha]'s bits:
    distinct params or distinct [avail] values never share an engine,
    while at [alpha = 0] the key is the baseline key because the
    weights are equal. *)

val server_weight : pricing -> demand:float -> int -> float
(** Placement weight of one server for a consolidated chain demand of
    [demand] MHz (exponential node weight, or unit cost × demand in
    [`Linear] mode). *)

val slack : float -> float
(** [slack x] relaxes a score bound by one part in 10⁹ (ULP drift guard):
    pruning a candidate only when its lower bound exceeds
    [slack incumbent] can never discard a candidate exact arithmetic
    would keep. Shared by admission's candidate pruning and Repair's
    migration screening. *)

val admit : ?prune:bool -> pricing -> Sdn.Request.t -> outcome
(** Decide one request; on admission the network's residuals are
    reduced by the tree's allocation. Cached Dijkstra trees in the
    pricing's window survive from one admit to the next as long as the
    weight epoch does not move (see {!Sp_window} for why this is
    exact).

    [?prune] (default [true]) enables incumbent-based candidate-server
    pruning: usable servers are screened by the lower bound
    [dist s v + w_v] and only priced (KMB tree + backtrack) when the
    bound could still beat the best complete candidate. The bound is a
    true lower bound on the candidate score, so pruning is exact — the
    admitted tree, the allocation, and the rejection reason are
    identical with pruning on or off; only the [online_cp.pruned.*]
    telemetry and the amount of work differ. [?prune:false] is the
    naive reference the equivalence tests compare against.

    Pruning also proves two rejections before doing the work that
    would reach them (DESIGN.md §11, "Proving rejections before pricing
    them"). Every tree over [s], a server [v] and a destination [d]
    weighs at least the tripod bound
    [(d(s,v) + d(v,d) + d(s,d)) / 2], and at least [d(s,v)] and
    [d(s,d)]. So a server whose bound exceeds [slack σ_e] is counted
    as a threshold violation without a KMB run. A request with some
    [d(s,d)] beyond [slack σ_e] and at least one screened server is
    rejected [Over_threshold] after the source Dijkstra alone. A
    destination that {!Sp_window.connects} places outside the source's
    component of the links admitting the bandwidth gives [Unreachable]
    before any engine is acquired. Reasons and outcomes are those of
    [?prune:false]. Telemetry: [online_cp.pruned.over_threshold]
    (servers skipped) and [online_cp.pruned.unreachable] (requests).

    With an [avail], the exposure surcharge joins the link weights (and
    the engine family key) — see the {!avail} section above for the
    exactness and equivalence guarantees. *)
