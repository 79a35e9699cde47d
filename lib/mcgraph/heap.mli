(** Indexed binary min-heap with [float] priorities.

    Keys are small non-negative integers (typically graph node ids); each
    key may appear at most once. The heap supports the decrease-key
    operation required by Dijkstra's algorithm in O(log n). *)

type t

val create : int -> t
(** [create capacity] is an empty heap accepting keys in
    [0 .. capacity - 1]. Raises [Invalid_argument] if [capacity < 0]. *)

val capacity : t -> int
(** Number of distinct keys the heap accepts. *)

val size : t -> int
(** Number of keys currently stored. *)

val is_empty : t -> bool

val mem : t -> int -> bool
(** [mem h key] is [true] iff [key] is currently stored in [h]. *)

val priority : t -> int -> float option
(** Current priority of a key, if present. *)

val insert : t -> key:int -> float -> unit
(** [insert h ~key p] adds [key] with priority [p]. Raises
    [Invalid_argument] if [key] is out of range or already present. *)

val decrease : t -> key:int -> float -> unit
(** [decrease h ~key p] lowers the priority of a present [key] to [p].
    Raises [Invalid_argument] if [key] is absent or [p] is larger than
    the current priority. *)

val insert_or_decrease : t -> key:int -> float -> unit
(** Insert the key, or decrease its priority if the new priority is
    smaller; a no-op when the key is present with a smaller or equal
    priority. This is the Dijkstra relaxation primitive. *)

val insert_or_decrease_from : t -> float array -> int -> unit
(** [insert_or_decrease_from h prios key] is
    [insert_or_decrease h ~key prios.(key)], performing the same heap
    operations without allocating: the priority is read inside the heap
    rather than passed (and boxed) as an argument. *)

val pop_min : t -> (int * float) option
(** Remove and return the key with the smallest priority, or [None] when
    the heap is empty. Ties are broken arbitrarily. *)

val pop_min_key : t -> int
(** [pop_min_key h] removes the key with the smallest priority exactly as
    {!pop_min} does and returns it, or [-1] when the heap is empty;
    allocation-free, for callers that track priorities themselves. *)

val clear : t -> unit
(** Remove every key, retaining the capacity. *)
