(** Polymorphic min-priority queue with [float] priorities (pairing
    heap). Unlike the indexed heap inside {!Paths.dijkstra_vec}, elements
    are arbitrary and need no key space; used for event-driven
    simulation. *)

type 'a t

val empty : 'a t

val is_empty : 'a t -> bool

val insert : 'a t -> float -> 'a -> 'a t
(** Persistent insert. *)

val pop : 'a t -> (float * 'a * 'a t) option
(** Minimum-priority element and the remaining queue. Ties pop in an
    unspecified order. *)

val peek : 'a t -> (float * 'a) option

val size : 'a t -> int
(** O(n). *)

val of_list : (float * 'a) list -> 'a t

val to_sorted_list : 'a t -> (float * 'a) list
(** Drain into priority order. *)
