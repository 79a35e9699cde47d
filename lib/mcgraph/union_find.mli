(** Disjoint-set forest with union by rank and path compression. *)

type t

val create : int -> t
(** [create n] is a partition of [{0, ..., n-1}] into singletons. *)

val reset : t -> unit
(** [reset t] makes [t] the partition into singletons again, in place:
    no allocation, so one forest can be relabelled many times. *)

val find : t -> int -> int
(** Canonical representative of an element's set. *)

val union : t -> int -> int -> bool
(** [union t a b] merges the sets of [a] and [b]. Returns [false] when
    they were already in the same set (no change), [true] otherwise. *)

val same : t -> int -> int -> bool
(** Whether two elements are currently in the same set. *)

val count : t -> int
(** Number of disjoint sets. *)

val size : t -> int -> int
(** Number of elements in the set containing the argument. *)
