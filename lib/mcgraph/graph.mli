(** Undirected multigraphs with integer node and edge identifiers.

    Nodes are [0 .. n-1], fixed at creation. Edges are appended and get
    consecutive identifiers [0 .. m-1]; parallel edges are allowed,
    self-loops are not. The structure stores no weights: algorithms take
    a [weight : int -> float] function over edge ids, so one topology can
    be reused under many cost models (base costs, per-request costs,
    online exponential weights, pruned graphs via [infinity]). *)

type t

val create : int -> t
(** [create n] is an edgeless graph on nodes [0 .. n-1]. Raises
    [Invalid_argument] if [n < 0]. *)

val add_edge : t -> int -> int -> int
(** [add_edge g u v] appends an undirected edge and returns its id.
    Raises [Invalid_argument] on out-of-range endpoints or [u = v]. *)

val of_edges : n:int -> (int * int) list -> t
(** Build a graph from an edge list; edge ids follow list order. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges. *)

val endpoints : t -> int -> int * int
(** Endpoints of an edge, in insertion order. *)

val edge_u : t -> int -> int
(** First endpoint of an edge ([fst (endpoints g e)]) without building
    the pair; for loops that visit one edge at a time. *)

val edge_v : t -> int -> int
(** Second endpoint of an edge ([snd (endpoints g e)]). *)

val other_endpoint : t -> int -> int -> int
(** [other_endpoint g e u] is the endpoint of [e] that is not [u].
    Raises [Invalid_argument] if [u] is not an endpoint of [e]. *)

val neighbors : t -> int -> (int * int) list
(** [(neighbor, edge id)] pairs incident to a node. *)

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g u f] calls [f neighbor edge_id] for each incident
    edge; allocation-free hot path for graph algorithms. *)

type csr = {
  off : int array;   (** [off.(u) .. off.(u+1)-1] index node [u]'s slots; length [n+1] *)
  nbr : int array;   (** neighbor per slot; length [2m] *)
  eid : int array;   (** edge id per slot; length [2m] *)
}
(** Frozen compressed-sparse-row adjacency: three flat unboxed arrays,
    so inner relaxation loops avoid chasing [(int * int) list] cells.
    Slot order per node matches {!iter_neighbors}, keeping tie-breaking
    in shortest-path algorithms identical across both views. *)

val csr : t -> csr
(** The CSR view of the current edge set. Built once and cached;
    [add_edge] invalidates the cache, so hold the returned value only
    while the graph is not mutated. Rebuilds count under the [Nfv_obs]
    counter [graph.csr_rebuilds], so a hot loop that accidentally
    alternates mutation and traversal shows up in [--stats] output. *)

val degree : t -> int -> int
(** Number of incident edge slots of a node (each parallel edge counts
    once). *)

val find_edge : t -> int -> int -> int option
(** Some edge id joining the two nodes, if any (first inserted wins). *)

val mem_edge : t -> int -> int -> bool
(** Whether at least one edge joins the two nodes. *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges g f] calls [f edge_id u v] for each edge, in increasing
    edge-id order. *)

val edge_list : t -> (int * int * int) list
(** All edges as [(id, u, v)], in id order. *)

val copy : t -> t
(** Independent copy (sharing no mutable state). *)
