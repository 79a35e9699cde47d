(** Enumeration of the server combinations explored by [Appro_Multi].

    Algorithm 1 iterates over every combination of at most [K] servers
    out of [V_S] (its Fig. 4 example enumerates all subsets of size 1 and
    2 for K = 2). *)

val choose : int -> int -> int
(** Binomial coefficient C(n, k); 0 when [k > n] or [k < 0]. *)

val count_up_to : int -> int -> int
(** [count_up_to n k] = Σ_{l=1..k} C(n, l): how many auxiliary graphs
    Algorithm 1 builds. *)

val iter_subsets_up_to : 'a list -> int -> ('a list -> unit) -> unit
(** [iter_subsets_up_to items k f] calls [f] on every subset of size
    1..[k], smallest sizes first and, within a size, in lexicographic
    order of positions (elements keep their list order): the iteration
    space of Algorithm 1, without building the list of all subsets. *)
