(** The auxiliary undirected graph [G_k^i] of Algorithm 1 (§IV-B).

    For a request [r_k] the extended graph adds a virtual source [s'_k]
    and one virtual edge [(s'_k, v)] per candidate server [v], weighted
    [b_k·d_G(s_k, v) + c_v(SC_k)]; base edges cost [b_k·c_e]. The
    paper's zero-cost edges [(s_k, v)] for [v] in the chosen server
    combination are deliberately not applied (DESIGN.md §3).

    Instead of materialising one graph per server combination and
    re-running Dijkstra (the naive [O(|V_S|^K)] Dijkstra blow-up), the
    module evaluates each combination's metric exactly through a {e hub
    decomposition}: every special (virtual) edge is incident to [s'_k],
    so any shortest path is base legs stitched at the hubs
    [{s_k, s'_k} ∪ subset]. A small Floyd–Warshall over the hubs
    yields exact distances and reconstructible paths. Base-graph legs
    come from a lazy {!Mcgraph.Sp_engine} the caller supplies: one
    Dijkstra tree per queried source (the request source, candidate
    servers, destinations), cached across all combinations. The
    distances the combinations read are copied out of those trees into
    per-request point and hub tables — destination × destination,
    destination × base hub, base hub × destination and base hub × base
    hub, the base hubs being the candidates and [s_k] — O((|D| + |C| +
    1)²) floats in all, each row copied from its owner's tree the first
    time it is read. Nor is [G_k^i] copied: KMB reads the virtual edges
    as spokes of the base graph. Tests check the metric against Dijkstra
    on a materialised [G_k^i] under {!weight}, and bit for bit against
    the same formula read off the engine trees. *)

type t

val build :
  engine:Mcgraph.Sp_engine.t ->
  ?placement_cost:(int -> float) ->
  k:int ->
  net:Sdn.Network.t ->
  request:Sdn.Request.t ->
  candidate_servers:int list ->
  unit ->
  t
(** [engine] is a shortest-path engine over [Sdn.Network.graph net]; its
    weight vector ({!Mcgraph.Sp_engine.weights}) is the price of every
    base edge, [infinity] marking a pruned one. The caller builds it, so
    the price and whatever keys a shared engine live in one place:
    {!Appro_multi} prices [b_k·c_e] (pruned by residual bandwidth when
    capacitated), {!Online_multi} uses {!Online_cp.engine}.
    [placement_cost] prices a server (default [c_v(SC_k)]).
    [candidate_servers] are the servers considered for hosting the
    chain (already filtered for computing capacity by the caller). [k]
    is the most servers a priced subset holds: {!redundant}'s
    bottleneck table keeps one slot per subset of fewer than [k]
    candidates. *)

val k : t -> int
(** The [k] the graph was built for. *)

val virtual_node : t -> int
(** [s'_k], node [n] of [G_k^i]; its edge [m + i] leads to candidate [i]. *)

val base_edge_count : t -> int
(** Edges with id below this bound are base edges. *)

val is_virtual_edge : t -> int -> bool
(** Whether the id is in [[m, m + |candidates|)]. *)

val server_of_virtual_edge : t -> int -> int
(** Raises [Invalid_argument] off {!is_virtual_edge}. *)

val virtual_edge_of_server : t -> int -> int option

val virtual_edge_weight : t -> int -> float
(** The engine's [d(s_k, v)] plus [placement_cost v] for a candidate
    server ([b_k·d(s_k, v) + c_v(SC_k)] under Algorithm 1's prices);
    [infinity] when the server is unreachable from the source. *)

val reachable_servers : t -> int list
(** Candidate servers with finite virtual-edge weight. *)

val base_dist : t -> int -> int -> float
(** Shortest-path distance in the (pruned) base graph under the
    engine's price. Served by the lazy engine: the first query from a source
    costs one Dijkstra, later queries from it are O(1). *)

type subset_metric
(** The exact metric of [G_k^i] for one server combination. *)

val subset_metric : t -> int list -> subset_metric
(** Raises [Invalid_argument] if the subset contains a non-candidate.
    A metric reads the engine's weight vector and its hubs' rows of the
    request's point and hub tables (O((|D| + |C| + 1)²) floats, kept by
    [t]) when built; the tables keep every row they were given, so each
    later subset adds only its own hub-to-hub corrections. A metric
    built after the engine's weight epoch moved reads the tables afresh,
    so a metric answers for its epoch until one is built at another.
    Each distance row fills a vector of hub distances and, once per
    metric, a point-to-hub map, both kept by [t], before reading them,
    so the metrics of one [t] may be queried in any order, but like [t]
    itself not from two domains at once. *)

val weight : subset_metric -> int -> float
(** Per-edge weight of the auxiliary graph under this combination
    ([infinity] for pruned base edges and other combinations' virtual
    edges). Base edges read the engine's per-epoch weight vector
    ({!Mcgraph.Sp_engine.weights}). *)

val dist : subset_metric -> int -> int -> float
(** Exact shortest-path distance in [G_k^i] between any two extended
    nodes (the virtual node included). *)

val path : subset_metric -> int -> int -> int list option
(** Edge ids realising [dist], in travel order: the first least walk in
    hub order, expanded into base legs and virtual edges. These are the
    edges {!steiner_tree} streams into KMB for the same pair, collected
    into a list (KMB never builds it). *)

val steiner_tree : subset_metric -> int list option
(** KMB Steiner tree spanning [{s'_k} ∪ D_k] in [G_k^i]; [None] when a
    terminal is unreachable. The run's closure-MST bottleneck (its
    longest closure-MST edge, [infinity] for [None]) is kept for
    {!redundant}'s rule (a′) when the subset lists its servers in
    candidate order and holds fewer than [k] of them. The run reads the request's terminal array
    (built once per [t]), the base graph, and the virtual edges as
    spokes of [s'_k]: base edges weigh the metric's engine vector,
    virtual edges their {!virtual_edge_weight}. A KMB path emits only
    base edges and this subset's virtual edges, so those weights agree
    with {!weight} bit for bit on every edge KMB reads. Paths stream
    from the engine trees into KMB's scratch; beyond those trees and the
    result, a run allocates a few closures. *)

val tree_cost : subset_metric -> int list -> float
(** Cost of an edge set under this combination's weights. *)

val redundant : t -> int list -> bool
(** [redundant aux subset] is [true] when some server [u] of [subset]
    (of at least two servers) provably changes nothing: the KMB tree
    {!steiner_tree} finds for [subset] and its {!tree_cost} are, bit for
    bit, those of [subset] without [u] (call it [R]). The test
    (DESIGN.md §17) asks that [u] lies off every shortest path between
    the source, the destinations and [R] (b), and either (a) that [u]'s
    virtual edge loses to [R]'s at each of them, or (a′) that every
    walk through [u]'s virtual edge to a destination is longer than the
    longest edge of [R]'s closure MST, both by a margin above float
    rounding. [false] is always safe: it only means the subset must be
    priced. A skip is counted under [appro_multi.pruned.dominated] (a)
    or [appro_multi.pruned.bottleneck] (a′).

    (a′) reads [R]'s bottleneck as {!steiner_tree} kept it, and a
    skipped subset keeps [R]'s, so call [redundant] on a subset after
    its subsets have been priced or skipped, in candidate order (as
    {!Combinations.iter_subsets_up_to} over {!reachable_servers} does).
    The bottlenecks live in [t], by subset, and are forgotten when a
    metric is built at a new weight vector: one found at another weight
    vector than the latest metric's reads as unknown, which only
    disables (a′).

    The first call builds a per-request table from the engine rows
    already cached — the source's, the reachable candidates' and the
    destinations' — and never runs a Dijkstra, so it prunes the most
    once the singletons have been priced. Like {!subset_metric} it
    answers for the weight epoch the table was built at. Raises
    [Invalid_argument] if a subset of two or more servers contains a
    non-candidate. *)

val to_pseudo_tree : t -> int list -> Pseudo_tree.t
(** Map an auxiliary Steiner tree (rooted at the virtual source) back to
    a pseudo-multicast tree of the SDN: virtual edges expand into
    shortest source → server paths, witnesses are read off the tree.
    Raises [Invalid_argument] if the edge set is not a tree rooted at
    the virtual source spanning all destinations. *)
