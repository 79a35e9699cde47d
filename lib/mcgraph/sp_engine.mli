(** Lazy, demand-driven single-source shortest-path engine.

    The auxiliary-graph construction and the baselines only ever query
    distances from a handful of sources (the request source, the ≤K
    candidate servers, the destinations), so computing all-pairs shortest
    paths eagerly — |V| Dijkstras and O(V²) arrays per request — is
    wasted work. This engine computes one Dijkstra tree per {e queried}
    source, over the graph's frozen CSR view, and caches it in an O(V)
    array slot.

    {2 Epoch-invalidation contract}

    The weight epoch is a version counter supplied at creation (e.g.
    [Sdn.Network.weight_epoch], bumped on every allocate/release/reset).
    When weights are load-dependent — the online algorithms' exponential
    prices read residual capacities — a bumped epoch makes every cached
    tree stale. The engine re-reads the epoch on {e every} lookup
    ({!spt}, {!peek}, {!dist}, {!path}, {!weights}); the first lookup
    that observes a new epoch drops {e all} cached trees at once, so
    stale O(V) trees are never retained across an epoch change, and
    subsequent queries recompute against the new prices instead of
    serving wrong distances. With a constant epoch the cache never
    expires, which is correct for weights that are pure functions of the
    edge id.

    {2 Weight vector and the purity contract}

    The engine does not call [weight] during a search. On the first
    Dijkstra (cache miss) or {!weights} read at a new epoch it evaluates
    [weight] once on {e every} edge id in [[0, Graph.m g)], stores the
    results in one float array (sized by [Graph.m] at fill time), and
    every later Dijkstra of that epoch reads the array. The vector is
    dropped together with the cached trees when a lookup observes an
    epoch change, and survives {!renew} when the epoch is unchanged,
    under the same extensional-equality contract that keeps the cached
    trees valid. So [weight] must be
    - {b pure} between two equal readings of [epoch]: evaluating it early,
      or on edges no search reaches, must give what a later evaluation in
      the same epoch would; and
    - {b total} on [[0, Graph.m g)]: the fill evaluates edges that no
      Dijkstra may ever scan, so it must not raise on any edge id.

    A negative weight is still reported (by [Invalid_argument]) only when
    a search relaxes that edge.

    {2 Determinism and tie-breaks}

    [dist t u v] and [path t u v] always answer from [u]'s tree (never
    the symmetric [v] tree), and Dijkstra relaxes neighbours in the CSR
    slot order, which equals [Graph.iter_neighbors] order (insertion
    order). Results are therefore bit-identical to eager all-pairs rows
    built from one {!Paths.dijkstra_vec} per source, including equal-cost
    tie-breaks. Callers wanting the undirected-symmetry discount use
    {!peek} explicitly.

    {2 Telemetry}

    The engine keeps no counters of its own. Every cache event feeds the
    process-wide [Nfv_obs] counters, gated on [Obs.enabled]: an {!spt}
    answered from cache is one [sp_engine.cache_hits], a computed tree
    one [sp_engine.cache_misses], a tree dropped by an epoch sweep one
    [sp_engine.evictions]; each computed tree is also
    one [dijkstra.runs] of {!Paths}, with the rest of the [dijkstra.*]
    work counters. *)

type t
(** A per-(graph, weight function) engine with its tree cache. *)

val create : Graph.t -> weight:(int -> float) -> epoch:(unit -> int) -> t
(** [create g ~weight ~epoch] prepares an engine; no Dijkstra runs until
    the first query. [weight] is read when an epoch's weight vector is
    filled, so it may consult mutable state as long as [epoch] changes
    whenever that state does, and it must be pure and total on the edge
    ids (the contracts above). A constant [epoch] suits immutable
    weights. [epoch] is called once at creation to pin the initial cache
    validity. *)

val spt : t -> int -> Paths.spt
(** [spt t s] is the shortest-path tree rooted at source [s], computed
    on first use and cached while the epoch is unchanged. *)

val peek : t -> int -> Paths.spt option
(** [peek t s] is [s]'s cached, current-epoch tree if one exists; never
    computes. Lets callers exploit distance symmetry
    ([d(u,v) = d(v,u)] on undirected graphs) without triggering extra
    Dijkstras — [Online_CP] answers server↔terminal distances from the
    terminal's tree this way. *)

val dist : t -> int -> int -> float
(** [dist t u v] from [u]'s tree; [infinity] when unreachable. *)

val path : t -> int -> int -> int list option
(** Edge ids of a shortest [u → v] path in travel order, from [u]'s
    tree; [None] if unreachable, [Some []] when [u = v]. *)

val weights : t -> float array
(** [weights t] is the current epoch's weight vector, [(weights t).(e)]
    being [weight e] — filled now if this epoch has not filled it yet.
    Callers pricing the engine's own paths (Online_CP's tree and
    backtrack costs, its second KMB spanning tree, [Aux_graph]'s base
    edges) read it instead of re-evaluating the closure. The array is
    shared with the engine: never mutate it, and do not keep it past an
    epoch change. *)

val renew : t -> weight:(int -> float) -> unit
(** [renew t ~weight] re-arms a long-lived engine for a new weight
    closure: if the epoch moved since the cached trees were built they
    are all swept first (counting as evictions, exactly as a lookup-time
    sweep would), then [weight] replaces the engine's
    closure. {b Contract:} when the epoch has {e not} moved, the caller
    must guarantee the new closure is extensionally equal to the one it
    replaces — surviving cached trees and the weight vector are served
    unchanged. This is what
    lets an admission window keep one engine per weight class across
    requests: closures capture per-request state (e.g. the request's
    bandwidth), but as long as the window keys engines so that equal key
    + equal epoch ⇒ equal weights, [renew] is exact. Used by
    [Nfv_multicast.Sp_window]. *)
