(** Fig. 7: [Appro_Multi_Cap] under resource capacity constraints —
    operational cost (a) and running time (b) vs network size at
    [D_max/|V| = 0.2], requests admitted sequentially so residuals
    shrink. The uncapacitated [Appro_Multi] cost on the same request
    stream is included as the comparison the paper draws with Fig. 5(c).

    Paper shape: the capacitated cost is higher, because pruning shrinks
    the set of server combinations the algorithm can exploit. *)

val spec : Spec.t
(** Timing reads the ["appro_multi.admit"] span histogram — every
    admit attempt, rejected ones included. By default 120 requests are
    admitted sequentially per point, over sizes
    [[50; 100; 150; 200; 250]]. *)
