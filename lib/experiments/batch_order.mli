(** Extension experiment: offline batch admission order. Sweeps the
    batch size on one network and reports how many requests each
    ordering policy (arrival, smallest-first, largest-first,
    cheapest-first) packs with [Appro_Multi_Cap]. *)

val spec : Spec.t
(** Registered as ["batch"]; the family has no request-count knob, so
    [--requests] is ignored. An 80-switch network; batch sizes 100,
    200, 400 and 800. *)
