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
    ([Array.length weights >= Graph.m g]; entries past [Graph.m g] are
    never read). Neighbours are relaxed in CSR slot order and priority
    ties are broken by the kernel's indexed binary heap, so for equal
    weights the tree — [dist] bits, [parent] and [parent_edge] — is a
    deterministic function of the graph, the weights and the source.

    {b Tie order.} Equal priorities are never reordered by a sift: an
    entry moves past another only on a strict [<]. Which of two tied
    nodes is popped first is therefore a fixed function of the
    operation sequence, and the parent choices (hence every tree and
    decision built on them) depend on it. The sifts move a hole rather
    than swapping, but make the same comparisons and leave every entry
    at the same slot as the classic swap-based sifts; the test suite
    keeps a swap-based reference heap and checks the two agree state
    for state through {!For_testing}.

    {b No settled marks.} A scanned slot makes one test,
    [du +. w < dist.(v)] for [w >= 0.0]. Weights are non-negative, so
    pops come in nondecreasing priority order: a node [v] settled before
    the popped [u] has [dist.(v) <= du <= du +. w] (rounding is
    monotone), so the test never relaxes a settled node, and the tree is
    the one a search that skips settled nodes builds. An [infinity]
    weight never passes the test and a [nan] one is skipped.

    Raises [Invalid_argument] before searching when
    [Array.length weights < Graph.m g] (message
    ["Paths.dijkstra: weight vector shorter than the edge count"]) or
    [source] is outside [0 .. Graph.n g - 1], and when the search scans
    an edge of negative weight into a node not yet settled
    (["Paths.dijkstra: negative weight"]).

    A run allocates the three arrays of the returned tree and nothing
    else sized by the graph: the heap's [keys], [prio] and [pos] arrays
    are a per-domain scratch, grown to the largest graph the domain has
    searched and reused by every later run. A run leaves the heap
    empty, and one that raises resets the entries it leaves behind. It
    calls no user code, so a run never nests inside another on the same
    domain. *)

val path_edges : Graph.t -> spt -> int -> int list option
(** Edge ids of the tree path from the source to a node, in travel
    order; [None] if unreachable, [Some []] for the source itself. *)

val iter_path : spt -> int -> (int -> unit) -> bool
(** [iter_path spt v emit] calls [emit] on each edge id of the tree path
    from the source to [v], in travel order — the list {!path_edges}
    returns — and returns [true]; it emits nothing and returns [false]
    when [v] is unreachable, and emits nothing for the source itself.
    It allocates nothing (the climb recurses once per edge). *)

(** Test-only view of the kernel's heap: a heap of its own, driven by
    the same insert-or-decrease, pop, sift and reset code the kernel
    runs. *)
module For_testing : sig
  type heap

  val heap : int -> heap
  (** [heap n] is an empty heap over the keys [0 .. n - 1]. *)

  val insert_or_decrease : heap -> key:int -> float -> unit
  (** Insert the key, or lower its priority when the new one is
      smaller; a no-op when the key is present with a smaller or equal
      priority. *)

  val pop_min : heap -> (int * float) option
  (** Remove and return the key with the smallest priority (ties as in
      the tie-order note of {!dijkstra_vec}), [None] when empty. *)

  val clear : heap -> unit
  (** Remove every key: the reset of a run that raises. *)

  val state : heap -> int array * float array * int array
  (** Copies of the live slots' keys and priorities (slot order,
      [0 .. size - 1]) and of the whole key-to-slot map ([-1] = absent). *)
end
