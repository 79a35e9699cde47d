(** Per-domain scratch memory for the spanning-tree and Steiner kernels,
    and the three kernels KMB runs on it (private to [Mcgraph]).

    One KMB run must cost work proportional to its terminals and its
    expanded subgraph, not to the graph it lives in. So no kernel clears
    an O(|V|) or O(|E|) array per call: each domain owns one scratch
    ({!get}, a [Domain.DLS] value) holding a {e stamped} key → slot map
    and a few growable buffers. Resetting the map bumps a generation
    counter instead of clearing it; a key reads as present only if it
    was bound under the current generation. The arrays grow to the
    largest graph a domain has seen and are never shrunk.

    {b Re-entrancy.} A kernel holds the scratch from entry to return, so
    no kernel may be called again, on the same domain, from inside one of
    its own callbacks ([weight], [dist], [path], [row]), and a [path]
    callback's [emit] (which writes the scratch) must not call one
    either. Different domains never share a scratch. *)

type ints
(** A growable int buffer. *)

type floats
(** A growable float buffer. *)

type t = private {
  mutable stamp : int array;
  mutable slot : int array;
  mutable gen : int;
  edges_a : ints;  (** an edge-id list handed between kernels *)
  weights_a : floats;  (** the weights of [edges_a]'s entries, index for index *)
  edges_b : ints;  (** a second one, for the next stage *)
  pairs : ints;    (** {!prim}'s node pairs, flat: [(a, b)] at [2p], [2p + 1] *)
  i0 : ints;       (** kernel-local work buffers: any kernel may clobber them *)
  i1 : ints;
  i2 : ints;
  f0 : floats;
  f1 : floats;
  bottleneck : float array;
      (** one entry: the largest key {!prim} picked in its last run on
          this domain, the longest closure-MST edge *)
}

val get : unit -> t
(** This domain's scratch. *)

val ints : ints -> int -> int array
(** [ints b n] is [b]'s array, grown to length [>= n] first; the
    contents are unspecified after a growth. *)

val floats : floats -> int -> float array
(** As {!ints}, for a float buffer. *)

val push : ints -> int -> int -> unit
(** [push b i x] sets entry [i] of [b] to [x], growing [b] and keeping
    its entries [0 .. i-1]. *)

val of_list : ints -> int list -> int array
(** The list copied into the buffer from index 0. *)

val to_list : int array -> int -> int list
(** The first [n] entries as a list. *)

val reset_keys : t -> size:int -> unit
(** Forget every key; the next keys are in [[0, size)]. O(1) unless the
    map must grow. *)

val find : t -> int -> int
(** The slot bound to a key since the last reset, or [-1]. *)

val bind : t -> int -> int -> unit
(** Bind a key to a (non-negative) slot. *)

val prim : points:int array -> row:(int -> int array -> int -> float array -> unit) -> int
(** [prim ~points ~row] is the MST of the complete graph on [points]
    under the metric [row] reads (the {!Mst.prim_rows} contract). It
    writes the node pairs to [pairs] in the order Prim adds them and returns how many, or
    [-1] when some point is at infinite distance from the rest. It
    leaves the largest key it picked in [bottleneck] ([neg_infinity]
    with fewer than two points; the keys picked before the failure
    when it returns [-1]). [row]
    must not touch the scratch, so [pairs] and [edges_a] stay valid
    for the caller. *)

val kruskal : Graph.t -> int array -> float array -> int array -> int -> ints -> int
(** [kruskal g spokes ws src n dst] writes to [dst], in pick order, the
    edges of a minimum spanning forest of the edge ids [src.(0 .. n-1)],
    edge [src.(i)] weighing [ws.(i)], and returns how many. Ids from
    [Graph.m g] on are a star's: edge [Graph.m g + i] joins node
    [Graph.n g] to [spokes.(i)] ([[||]] over [g] alone). The caller
    fills [ws] (usually [weights_a], beside [edges_a]). Equal weights
    keep their input order; infinite weights are skipped. The union-find
    runs over compact slots of the edges' own endpoints. Neither [src]
    nor [ws] may be one of the scratch's work buffers. *)

val prune : Graph.t -> int array -> terminals:int array -> int array -> int -> int list
(** [prune g spokes ~terminals src n]: the distinct edge ids
    [src.(0 .. n-1)] (spokes as in {!kruskal}) that survive repeated
    removal of edges with a non-terminal endpoint of degree one, in
    input order. *)
