(** Event-driven simulation with request departures and failures.

    The paper's online model admits requests that hold their resources
    forever; real NFV multicast sessions (conferences, streams) end and
    release capacity — and the substrate under them loses links and
    servers while they run. This module drives any online algorithm
    through a Poisson arrival process with exponential holding times
    and, optionally, a time-stamped {!Sdn.Fault.timeline} merged into
    the same event queue: arrivals, departures, failures and heals are
    processed in one global time order. Every stochastic draw flows
    through the supplied {!Topology.Rng.t}, so traces are reproducible.

    {2 Failure semantics}

    When a fault fires, every session whose tree holds the failed
    resource is evicted ({!Sdn.Fault.inject} releases its allocation in
    full) and immediately pushed through {!Repair.repair}'s tier ladder
    under the run's pricing algorithm. A session no tier can restore is
    {e dropped}: it keeps no resources, but its request stays in a
    restoration backlog until its natural departure time passes. When a
    heal ([Link_up]/[Server_up]) returns capacity — or, under a
    {!Restore.Heal_or_depart} trigger, when a live session departs — a
    proactive restoration pass re-admits the backlog in the order a
    {!Restore.t} policy chooses (default: the historical
    [Smallest_first] replay) — the recoverable tail is measured, not
    lost. Restored sessions keep their original departure times.

    A dropped session's departure event still fires; it is a no-op on
    the network (the allocation was already released at eviction — no
    double free) and retires the session from the backlog. *)

type arrival = {
  at : float;             (** arrival time *)
  holding : float;
      (** session duration; [infinity] means the session never departs
          (the paper's online model — no departure event is queued) *)
  request : Sdn.Request.t;
}

type trace = arrival list
(** In arrival-time order, with distinct request ids. *)

val poisson_trace :
  ?spec:Workload.Gen.spec ->
  Topology.Rng.t ->
  Sdn.Network.t ->
  rate:float ->
  mean_holding:float ->
  count:int ->
  trace
(** [count] arrivals with exponential(rate) inter-arrival gaps and
    exponential(1/mean_holding) durations. Offered load is
    [rate · mean_holding] concurrent sessions in expectation. *)

type stats = {
  arrivals : int;
  admitted : int;
  rejected : int;
  completed : int;              (** sessions that departed while live *)
  acceptance_ratio : float;
  peak_concurrent : int;
  mean_concurrent : float;      (** time-averaged live sessions *)
  mean_utilization : float;     (** time-averaged mean link utilisation *)
  horizon : float;              (** time of the last event *)
  evicted : int;                (** fault evictions (a session can count twice) *)
  repaired : int;               (** evictions a repair tier restored in place *)
  dropped : int;                (** evictions no tier could restore *)
  restored : int;               (** backlog re-admissions at heals *)
}
(** On a fault-free trace [evicted = repaired = dropped = restored = 0]
    and every other field is exactly what the pre-fault simulator
    reported (pinned by the regression suite in
    [test/test_dynamic_churn.ml]). *)

type faults = {
  timeline : Sdn.Fault.timeline;
      (** time-stamped events merged into the arrival/departure queue *)
  controller : Sdn.Fault.t option;
      (** the fault controller to apply them through; [None] creates a
          fresh one over the run's network. Pass an explicit controller
          to inspect confiscations afterwards (or to start from
          pre-existing faults). *)
  restore : Restore.t option;
      (** selection policy and trigger set for the restoration pass;
          [None] disables proactive restoration (reactive repair only) *)
}

val make_faults :
  ?controller:Sdn.Fault.t ->
  ?restore:Restore.t option ->
  Sdn.Fault.timeline ->
  faults
(** Defaults: fresh controller, [Some Restore.default] — the
    smallest-first heal-only pass, bit-identical to the pre-policy
    simulator. *)

(** What one merged event did — the observation stream for tests and
    tracing. Events fire in simulation order; a fault's eviction
    outcomes ({!Repaired}/{!Dropped}) and any restoration follow its
    {!Fault_fired} immediately, at the same timestamp. *)
type happened =
  | Arrived of { id : int; tree : Pseudo_tree.t option }
      (** [tree = None] when the algorithm rejected the request *)
  | Departed of { id : int; released : bool }
      (** [released = false]: the session was evicted earlier and held
          nothing (its backlog entry, if any, is retired) *)
  | Fault_fired of { event : Sdn.Fault.event; victims : int list }
      (** emitted after {!Sdn.Fault.inject}: victims' allocations are
          already released and the confiscation is in place *)
  | Repaired of { id : int; tier : Repair.tier; tree : Pseudo_tree.t }
  | Dropped of { id : int }
  | Restored of { id : int; tree : Pseudo_tree.t }

val run :
  ?reset:bool ->
  ?faults:faults ->
  ?avail:Online_cp.avail ->
  ?observe:(float -> happened -> unit) ->
  Sdn.Network.t ->
  Admission.algorithm ->
  trace ->
  stats
(** Interleave arrivals, departures and (with [faults]) failure events
    in time order; admitted requests allocate their pseudo-multicast
    tree's resources and release them at departure, evictions go
    through repair and heals through restoration as described above.
    Ties on the clock resolve deterministically (the queue is a pure
    value), so a (network, trace, faults) triple always replays the
    same event sequence. The whole run — admission, repair and
    restoration — shares one {!Admission.pricing} context built from
    [algorithm] and [avail] (see there for the cost model, the shared
    {!Sp_window} and the [alpha = 0] bit-identity guarantee).

    With [reset:false] the network's current residuals are kept (the
    caller owns that state); the network ends with exactly the
    still-live sessions allocated on top of them (plus any
    unhealed confiscations when [faults] fired). [observe] (default a
    no-op) sees every {!happened} with its timestamp, in order.

    [avail] is typically built from the same partition the fault
    timeline cuts, so admission prices the very correlations the
    simulator will inject.

    Restoration passes run under [faults.restore]'s {!Restore.t}:
    {!Restore.select} orders the backlog (the knapsack policies read a
    returned-bandwidth estimate — a healed link's confiscation, a
    departing session's summed link allocation, [0.] for [Server_up])
    and each candidate is re-attempted through {!Admission.admit}. With the default policy the pass — trigger
    set, order, counters and span — is bit-identical to the historical
    hard-coded smallest-first pass (pinned in [test/test_restore.ml]).

    Telemetry: restoration attempts count under
    [restoration.attempted] with exactly one of
    [restoration.restored]/[restoration.failed] each, and each pass
    runs in a [restoration.pass] span; evictions and repair tiers land
    in the usual [fault.*]/[repair.*] instruments. *)
