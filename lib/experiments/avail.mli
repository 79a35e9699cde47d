(** Availability sweep: {!Dynamic_churn}'s grid re-run under
    SRLG-exposure pricing ({!Nfv_multicast.Online_cp.make_avail}), one
    sweep per surcharge level [alpha]. All sweeps share
    {!Dynamic_churn.sweep_key}, so matched points across alphas (and
    across this family and [dynamic_churn] itself) get identical
    per-point RNGs — identical networks, traces, partitions and fault
    timelines. The [alpha = 0] sweep passes no [?avail] and is
    byte-identical to the dynamic-churn baseline; non-zero alphas
    surcharge every link by [alpha × exposure] of its shared-risk
    group, buying survival under correlated cuts at some acceptance
    cost. *)

val alphas : float list
(** Surcharge levels, one sweep each; [0.] first (the baseline). *)

val metrics : string list
(** The tabulated subset of {!Dynamic_churn.metrics}: acceptance,
    survival, restored fraction, p50/p99 repair latency. *)

val spec : Spec.t
(** Registered as ["avail"]; figures [availA]/[availB] (GÉANT
    independent/SRLG) and [availC]/[availD] (AS1755 independent/SRLG),
    mirroring [dynchA]–[dynchD]. X is the failure rate; series are
    [<metric>@a<alpha>@<load>]. *)

val run : ?seed:int -> ?requests:int -> unit -> Exp_common.figure list
(** Convenience wrapper: run the spec's instance directly. *)
