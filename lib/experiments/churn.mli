(** The fault families: failure injection, repair and restoration on
    the paper's two real topologies (GÉANT, AS1755). Not in the paper,
    whose evaluation has no faults.

    Determinism: networks, workloads, partitions and fault timelines
    all derive from the per-point RNG, and Dynamic/Repair draw no
    randomness. Tier columns are [repair.*] counter deltas and latency
    columns are span-histogram quantiles, exact under the fake clock,
    so every column is byte-identical across [--jobs] settings. *)

val churn : Spec.t
(** ["churn"]: the paper's online model (arrival [i] at time [i],
    never departing) while a seeded {!Sdn.Fault.random_timeline} fires
    link/server failures between arrivals; evictions go through
    {!Nfv_multicast.Repair}'s tier ladder and restoration is off.
    Figures [churnA] (GÉANT) and [churnB] (AS1755); x is the failure
    rate (events per arrival: 0.05, 0.1, 0.2), series
    [<metric>@<load>] for [--requests] and its half (one load when the
    two coincide, as at [--requests 1]): survival, the four repair
    tiers, p50/p99 repair latency. The three Poisson families below
    take their loads the same way. *)

val dynamic_churn : Spec.t
(** ["dynamic_churn"]: Poisson arrivals and departures through
    {!Nfv_multicast.Dynamic.run} with time-stamped link cuts,
    independent (singleton groups) or SRLG group cuts from the same
    generator; repair on eviction and a smallest-first restoration pass
    at every heal. Figures [dynchA]/[dynchB] (GÉANT independent/SRLG)
    and [dynchC]/[dynchD] (AS1755), series [<metric>@<load>]. *)

val avail : Spec.t
(** ["avail"]: [dynamic_churn]'s grid once per SRLG-exposure surcharge
    alpha (0, 1, 4) under [dynamic_churn]'s sweep key, so matched cells
    see identical RNGs and alpha = 0 is byte-identical to the baseline.
    Figures [availA]–[availD], series [<metric>@a<alpha>@<load>]. *)

val restore : Spec.t
(** ["restore"]: [dynamic_churn]'s grid once per restoration policy
    (the default smallest-first replay first, byte-identical to the
    baseline), plus stressed GÉANT cells (long holdings, short outages)
    where the heal-time pass is contended. Figures
    [restoreA]–[restoreD], series [<metric>@<policy>@<load>] and, on
    GÉANT, [<metric>@<policy>@stressed]. *)
