(** Shortest paths under non-negative edge weights.

    Weights are supplied as a function over edge ids; an [infinity]
    weight removes the edge (used for residual-capacity pruning).
    [dijkstra] is the production algorithm; [bellman_ford] is a simple
    reference implementation kept as a test oracle. *)

type spt = {
  source : int;
  dist : float array;          (** [dist.(v)] = cost, [infinity] if unreachable *)
  parent_edge : int array;     (** edge into [v] on a shortest path, [-1] at source/unreachable *)
  parent : int array;          (** predecessor node, [-1] at source/unreachable *)
}
(** A single-source shortest-path tree. *)

val dijkstra : Graph.t -> weight:(int -> float) -> source:int -> spt
(** [dijkstra g ~weight ~source] is
    [dijkstra_vec g ~weights:(weight_vector g ~weight) ~source]: [weight]
    is evaluated once on every edge id in [[0, Graph.m g)] — including
    edges the search never scans — so it must be pure and total there.
    Raises [Invalid_argument] if a traversed edge has negative weight. *)

val weight_vector : Graph.t -> weight:(int -> float) -> float array
(** [weight_vector g ~weight] is [weight e] for every edge id [e] of [g],
    in id order: the materialised form {!dijkstra_vec} reads. *)

val dijkstra_vec : Graph.t -> weights:float array -> source:int -> spt
(** The Dijkstra kernel, reading edge [e]'s weight as [weights.(e)]
    ([Array.length weights >= Graph.m g]). Neighbours are relaxed in CSR
    slot order and priority ties are broken by the indexed heap, so for
    equal weights the tree — [dist] bits, [parent] and [parent_edge] —
    is a deterministic function of the graph, the weights and the
    source. Raises [Invalid_argument] if a traversed edge has negative
    weight. *)

val bellman_ford : Graph.t -> weight:(int -> float) -> source:int -> spt
(** Reference oracle; O(n·m). Requires non-negative weights (undirected
    graphs cannot carry negative edges without negative cycles). *)

val path_edges : Graph.t -> spt -> int -> int list option
(** Edge ids of the tree path from the source to a node, in travel
    order; [None] if unreachable, [Some []] for the source itself. *)

val path_nodes : Graph.t -> spt -> int -> int list option
(** Nodes of the same path, starting with the source. *)

val path_cost : weight:(int -> float) -> int list -> float
(** Total weight of an edge-id list. *)

type apsp = {
  d : float array array;        (** [d.(u).(v)] = shortest-path cost *)
  pe : int array array;         (** [pe.(u).(v)] = edge into [v] on a shortest [u → v] path, [-1] if none *)
  pn : int array array;         (** [pn.(u).(v)] = predecessor of [v] on that path *)
}
(** All-pairs shortest paths with path reconstruction, computed by one
    Dijkstra per node: O(n·m·log n) time, O(n²) space. *)

val all_pairs : Graph.t -> weight:(int -> float) -> apsp

val apsp_dist : apsp -> int -> int -> float

val apsp_path : apsp -> int -> int -> int list option
(** Edge ids of a shortest [u → v] path in travel order. *)
