(** Shortest paths under non-negative edge weights.

    Weights are supplied as a function over edge ids; an [infinity]
    weight removes the edge (used for residual-capacity pruning).
    {!dijkstra_vec} is the one algorithm. The references tests compare it
    against (Bellman–Ford, the closure-form Dijkstra, all-pairs tables)
    are in the test-only [Oracle.Ref_paths]. *)

type spt = {
  source : int;
  dist : float array;          (** [dist.(v)] = cost, [infinity] if unreachable *)
  parent_edge : int array;     (** edge into [v] on a shortest path, [-1] at source/unreachable *)
  parent : int array;          (** predecessor node, [-1] at source/unreachable *)
}
(** A single-source shortest-path tree. *)

val attributed :
  string ->
  dijkstras:Nfv_obs.Obs.Counter.t ->
  relaxations:Nfv_obs.Obs.Counter.t ->
  (unit -> 'a) ->
  'a
(** [attributed span ~dijkstras ~relaxations f] is
    [Nfv_obs.Obs.Span.run span f] that also adds to [dijkstras] and
    [relaxations] the Dijkstra runs and relaxations this module counted
    (as [dijkstra.runs] and [dijkstra.relaxations]) while [f] ran: how
    an algorithm layer charges its shortest-path work to itself. If [f]
    raises, nothing is added. *)

val weight_vector : Graph.t -> weight:(int -> float) -> float array
(** [weight_vector g ~weight] is [weight e] for every edge id [e] of [g],
    in id order: the materialised form {!dijkstra_vec} reads. *)

val dijkstra_vec : Graph.t -> weights:float array -> source:int -> spt
(** The Dijkstra kernel, reading edge [e]'s weight as [weights.(e)]
    ([Array.length weights >= Graph.m g]). Neighbours are relaxed in CSR
    slot order and priority ties are broken by the indexed heap, so for
    equal weights the tree — [dist] bits, [parent] and [parent_edge] —
    is a deterministic function of the graph, the weights and the
    source.

    Raises [Invalid_argument] before searching when
    [Array.length weights < Graph.m g] (message
    ["Paths.dijkstra: weight vector shorter than the edge count"]), and
    if a traversed edge has negative weight
    (["Paths.dijkstra: negative weight"]).

    A run allocates the three arrays of the returned tree and nothing
    else sized by the graph: the heap and the settled marks are a
    per-domain scratch, grown to the largest graph the domain has
    searched and reused by every later run, including one after a run
    that raised. It calls no user code, so a run never nests inside
    another on the same domain. *)

val path_edges : Graph.t -> spt -> int -> int list option
(** Edge ids of the tree path from the source to a node, in travel
    order; [None] if unreachable, [Some []] for the source itself. *)

val iter_path : spt -> int -> (int -> unit) -> bool
(** [iter_path spt v emit] calls [emit] on each edge id of the tree path
    from the source to [v], in travel order — the list {!path_edges}
    returns — and returns [true]; it emits nothing and returns [false]
    when [v] is unreachable, and emits nothing for the source itself.
    It allocates nothing (the climb recurses once per edge). *)
