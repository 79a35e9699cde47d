(** Steiner trees in graphs.

    [kmb] is the 2(1 − 1/|S|)-approximation of Kou, Markowsky and Berman
    (Acta Informatica 1981) used throughout the paper. The optimal
    (Dreyfus–Wagner) trees it is checked against are in the test-only
    [Oracle.Steiner_exact].

    After its metric queries, one KMB run costs work proportional to its
    terminals and its expanded subgraph: the closure MST, the path
    expansion, the second MST and the pruning run on a per-domain
    scratch (see {!Mst}) with no O(|V|) or O(|E|) set-up: Prim leaves
    the closure MST as flat node pairs, the paths stream their edges
    into the deduplicated edge buffer, and the second MST reads the
    edges' weights from a float buffer filled off the weight vector.
    The same re-entrancy rule holds: a [weight], [row] or [path]
    callback must not call [kmb], [kmb_with_metric], [prune],
    [dedup_edges] or the {!Mst} kernels on the same domain. *)

val kmb : Graph.t -> weight:(int -> float) -> terminals:int list -> int list option
(** Edge ids of an approximate Steiner tree spanning [terminals];
    [None] when the terminals are not mutually reachable (under finite
    weights). A single terminal yields [Some []]. Runs one Dijkstra per
    terminal. *)

val kmb_with_metric :
  Graph.t ->
  spokes:int array ->
  weights:float array ->
  spoke_weights:float array ->
  terminals:int array ->
  row:(int -> int array -> int -> float array -> unit) ->
  path:(int -> int -> (int -> unit) -> bool) ->
  int list option
(** KMB where the metric closure is supplied by the caller, a row at a
    time: [row u dst n out] sets [out.(i)] to the shortest-path cost from
    node [u] to node [dst.(i)] for [i < n] (the {!Mst.prim_rows}
    contract), and [path u v emit] calls [emit] on that path's edge ids
    in travel order and returns [true] ([false] only when [v] is
    unreachable from [u]; {!Paths.iter_path} is the model). [emit]
    writes the scratch: [path] must not call it after returning, and
    must not call any kernel itself.

    Edge [e < Graph.m g] is [g]'s and weighs [weights.(e)]; edge
    [Graph.m g + i] is a spoke from node [Graph.n g] to [spokes.(i)]
    and weighs [spoke_weights.(i)] ([[||]] for both over [g] alone).
    [Aux_graph] passes the virtual edges of [G_k^i] as spokes, with no
    copy of [g]. The weights price the second spanning tree and must
    agree with the metric on every edge [path] emits. [terminals]
    already sorted with no repeats (as a caller pricing many subsets
    keeps them) is used as is; otherwise it is sorted into a fresh
    array. Beyond the trees [row] and [path] read, one run allocates the
    emitter and the returned list. *)

val closure_bottleneck : unit -> float
(** The longest edge of the last closure MST built on this domain (by
    {!kmb}, {!kmb_with_metric} or {!Mst.prim_rows}): the largest closure
    distance among its pairs. {!kmb_with_metric} builds one for every
    terminal set, an empty one ([neg_infinity]) for fewer than two
    terminals. Read it right after a run that returned [Some _]; each
    domain keeps its own. *)

val prune : Graph.t -> terminals:int list -> int list -> int list
(** Repeatedly remove edges whose endpoint of degree one is not a
    terminal; the standard final step of KMB. The edge ids must be
    distinct (a forest, as KMB's second MST gives). Leaf-stripping
    reaches a unique fixpoint; the surviving edges keep their input
    order. *)

val dedup_edges : Graph.t -> int list -> int list
(** The edge ids with later repeats removed, first occurrences kept in
    order. *)

val tree_cost : weight:(int -> float) -> int list -> float
(** Total weight of an edge-id list. *)

val is_steiner_tree : Graph.t -> terminals:int list -> int list -> bool
(** Structural check: the edge set is a tree (acyclic, connected) whose
    node set contains every terminal. *)
