(** Dynamic churn sweep: steady-state survival under failures with
    Poisson arrivals {e and} departures, on the paper's two real
    topologies (GÉANT, AS1755). Each grid point runs
    [Nfv_multicast.Dynamic.run] with a time-stamped [Sdn.Fault]
    timeline merged into the event queue: evictions go through the
    repair tier ladder, drops enter a backlog, and every heal triggers
    a proactive restoration pass (smallest-first re-admission). Each
    topology is swept under two failure models drawn from the same
    generator — independent single-link cuts (singleton groups) and
    correlated SRLG cuts (coordinate clusters on GÉANT, a seeded
    partition on AS1755) — so the SRLG rows isolate exactly the cost
    of correlation.

    Determinism: networks, traces, partitions and timelines all derive
    from the per-point RNG; Dynamic/Repair draw no randomness and the
    latency columns are histogram quantiles, exact under the fake
    clock — every column is byte-identical across [--jobs] settings. *)

(** {1 Grid building blocks}

    Exported for the availability sweep ({!Avail}), which re-runs this
    exact grid under non-zero exposure surcharges. Keeping one
    definition of the grid (and running it under {!sweep_key}) is what
    makes the matched-RNG contract hold: equal sweep key and point
    index give equal per-point seeds (see [Pool.point_seed]), so an
    [alpha = 0] avail cell is byte-identical to its dynamic-churn
    counterpart. *)

val nets : (string * char * (Topology.Rng.t -> Sdn.Network.t)) list
(** [(name, figure tag, builder)]: GÉANT ('A') and AS1755 ('C'). *)

val models : (string * bool) list
(** [("ind", false); ("srlg", true)] — whether the fault partition is
    the seeded SRLG clustering or matched singleton groups. *)

val rates : float list
(** Failure events per arrival: the sweep's x axis. *)

val default_requests : int

val smoke_requests : int
(** The [--requests] of the smoke instance, shared by {!Avail} and
    {!Restore} so their smoke cells are matched with this family's. *)

val mean_holding : float
val srlg_groups : int

val loads_of : int -> int list
(** The two offered-load levels for a [--requests] setting: its half,
    then itself. *)

val metrics : string list
(** Metric names every point result carries, in column order. *)

val sweep_key : string
(** ["dynamic_churn"] — the [Pool.point_seed] figure key. Any sweep
    re-running {!grid} points under this key gets the matched RNGs. *)

val grid :
  int ->
  ((Topology.Rng.t -> Sdn.Network.t) * bool * int * float) array
(** [grid requests] is the canonical point array
    [(make_net, srlg, load, rate)], nets × models × loads × rates in
    that nesting order; index with {!point_index}. *)

val point_index : ni:int -> mi:int -> li:int -> ri:int -> int
(** Flat index of (net, model, load, rate) grid coordinates. *)

val run_point :
  ?alpha:float ->
  ?restore:Nfv_multicast.Restore.t ->
  ?mean_holding:float ->
  ?heal_div:float ->
  make_net:(Topology.Rng.t -> Sdn.Network.t) ->
  srlg:bool ->
  load:int ->
  rate:float ->
  rng:Topology.Rng.t ->
  unit ->
  Spec.point_result
(** One grid point: build the network, trace, partition and timeline
    from [rng], run [Dynamic.run] and report {!metrics}. [alpha]
    (default [0.]) switches on availability-aware pricing
    ({!Nfv_multicast.Online_cp.make_avail} over the same partition the
    timeline cuts); zero passes no [?avail] at all, so the point is
    bit-for-bit the baseline. [restore] swaps the restoration policy of
    the simulator's backlog pass (omitted: the default smallest-first
    heal-only pass, again bit-for-bit the baseline) — the {!Restore}
    family's treatment lever. [mean_holding] (default {!mean_holding})
    and [heal_div] (outages heal [horizon / heal_div] after striking;
    default [4.]) reshape the holding-time-vs-outage-length ratio —
    the {!Restore} family's stressed cells lengthen holdings and
    shorten outages so dropped sessions are still live at heal time
    and the returned capacity is contended. *)

val spec : Spec.t
(** Registered as ["dynamic_churn"]; figures [dynchA]/[dynchB] (GÉANT
    independent/SRLG) and [dynchC]/[dynchD] (AS1755 independent/SRLG).
    X is the failure rate (cut events per arrival: 0.05, 0.1, 0.2);
    series are [<metric>@<load>] for two load levels, [--requests] and
    its half, with metrics: acceptance ratio, survival, the four
    [repair.*] tiers, restored count, restored fraction of drops, and
    p50/p99 repair latency. *)

val run : ?seed:int -> ?requests:int -> unit -> Exp_common.figure list
(** Convenience wrapper: run the spec's instance directly. *)
