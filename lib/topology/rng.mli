(** Deterministic pseudo-random numbers (SplitMix64).

    All randomness in the repository flows through this module so that
    every topology, workload and experiment is reproducible from a seed,
    independently of the OCaml stdlib [Random] state. *)

type t

val create : int -> t
(** A generator seeded from an integer. Equal seeds produce equal
    streams. *)

val split : t -> t
(** A statistically independent generator derived from the current state
    (advances the parent). *)

val copy : t -> t
(** Duplicate the current state (both copies then produce the same
    stream). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0 .. bound-1]. Raises
    [Invalid_argument] if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val float_range : t -> float -> float -> float
(** Uniform in [lo, hi). Raises [Invalid_argument] if [hi < lo]. *)

val int_range : t -> int -> int -> int
(** Uniform in [lo .. hi] inclusive. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] is [k] distinct values drawn
    uniformly from [0 .. n-1], in random order. Raises
    [Invalid_argument] when [k > n] or [k < 0]. *)
