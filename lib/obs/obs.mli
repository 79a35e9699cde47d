(** Zero-dependency, allocation-light metrics and tracing.

    Every hot layer of the system — the CSR graph core, the lazy
    shortest-path engine, the SDN resource substrate, the admission
    algorithms — registers named instruments here at module
    initialisation and records into them while running. Recording is
    gated on a single process-wide switch, {!enabled}: when it is [false]
    (the default) every recording call reduces to one boolean load and a
    branch, so instrumented code paths stay within noise of their
    uninstrumented versions and figure reproductions remain
    byte-identical. The [--stats] flag of [bin/nfvm_cli] and
    [bench/main] flips the switch and dumps a report on exit.

    Instruments are registered globally by name, in creation order, and
    live for the whole process: constructors are idempotent, so two
    modules asking for the same (kind, name) pair share one instrument —
    this is how an algorithm attributes the shortest-path engine's
    process-wide counters to itself by reading them before and after a
    solve. Names may use [A-Za-z0-9], [.], [_], [-] and [/]; the
    conventional shape is ["layer.event"], e.g.
    ["sp_engine.cache_hits"].

    {b Domains.} The global registries belong to the main domain and are
    never mutated from any other domain. Recording from a worker domain
    (spawned by the [Experiments.Pool] harness or directly) lands in a
    private
    per-domain {e shard}; reads from a worker see that domain's unmerged
    contribution, so before/after delta attribution keeps working inside
    a worker. After joining a worker, the main domain folds its shard
    back with {!Sharding.merge}: counters and timers sum, histograms add
    bucket-wise, gauges are last-write-wins in merge order. The same
    name must keep the same histogram bounds across domains. {!enabled}
    and {!clock} are plain refs shared by all domains: set them before
    spawning workers and leave them alone while workers run. *)

val enabled : bool ref
(** Master switch, default [false]. All recording operations ({!Counter.incr},
    {!Histogram.observe}, {!Span.run} timing, …) are no-ops while it is
    [false]; registration and read-out work regardless. *)

val clock : (unit -> float) ref
(** Time source used by {!Timer.time} and {!Span.run}, in seconds.
    Defaults to [Sys.time] (processor time). Note that [Sys.time] is
    process-wide: under a multi-domain run a worker's span durations
    include CPU burnt by sibling domains, so treat per-request timing
    telemetry from parallel runs as an upper bound (the determinism
    test suite substitutes a per-domain fake clock instead). Tests
    substitute a fake clock to make span and timer arithmetic
    deterministic. *)

val reset_all : unit -> unit
(** Zero every registered instrument (counts, sums, buckets). The
    instruments themselves stay registered. Benchmarks call this between
    phases so each phase's snapshot is self-contained. Called from a
    worker domain it zeroes only that domain's shard. *)

(** Per-domain shard hand-off for parallel harnesses. A worker domain's
    records accumulate in a private shard; the code that joins the
    worker moves them into the global registry:

    {[
      let worker () = ...work...; Obs.Sharding.take () in
      let shards = List.map Domain.join (List.map Domain.spawn workers) in
      List.iter Obs.Sharding.merge shards
    ]}

    Merging in spawn order makes the gauge last-write-wins rule
    deterministic per domain id. Nothing here is gated on {!enabled}:
    when recording was disabled the shard is empty and [merge] is a
    no-op. *)
module Sharding : sig
  type shard

  val take : unit -> shard
  (** Detach and return the calling domain's accumulated shard,
      resetting the domain's local state. In the main domain (which
      records straight into the global registry) this returns an empty
      shard. Call as the last thing a worker does, and hand the result
      to the joining domain. *)

  val merge : shard -> unit
  (** Fold a worker shard into the global registry: counters and timers
      sum, histogram buckets add bucket-wise (instruments first seen in
      the worker are registered with the worker's bounds), gauges
      overwrite (last merge wins). Must be called from the main domain;
      raises [Invalid_argument] elsewhere. *)
end

(** {1 Instruments} *)

(** Monotonic integer event counters. *)
module Counter : sig
  type t

  val make : string -> t
  (** [make name] registers (or retrieves — [make] is idempotent per
      name) the counter called [name]. Raises [Invalid_argument] on a
      name containing characters outside [A-Za-z0-9._/-]. *)

  val incr : t -> unit
  (** Add one, when {!enabled}. *)

  val add : t -> int -> unit
  (** Add an arbitrary non-negative amount, when {!enabled}. *)

  val value : t -> int
  (** Current count. Reads are never gated. In a worker domain this is
      the domain's own unmerged contribution (0 before its first
      record), which keeps before/after attribution deltas correct
      under parallel runs. *)

  val name : t -> string
end

(** Last-write-wins scalar measurements (utilisations, sizes, rates). *)
module Gauge : sig
  type t

  val make : string -> t
  (** Idempotent per name, like {!Counter.make}. *)

  val set : t -> float -> unit
  (** Record the latest value, when {!enabled}. *)

  val value : t -> float
  (** Latest recorded value; [0.] before any {!set}. *)

  val name : t -> string
end

(** Scalar accumulating timers: total elapsed seconds and a call count.
    For distributions (per-request solve times) prefer {!Span} /
    {!Histogram}; a timer is the cheap choice when only the aggregate
    matters. *)
module Timer : sig
  type t

  val make : string -> t
  (** Idempotent per name, like {!Counter.make}. *)

  val add : t -> float -> unit
  (** Record one observation of a duration (seconds) measured by the
      caller, when {!enabled}. Negative durations raise
      [Invalid_argument]. *)

  val time : t -> (unit -> 'a) -> 'a
  (** [time t f] runs [f] and records its duration per {!clock}. When
      disabled this is exactly [f ()]. The duration is recorded even if
      [f] raises. *)

  val count : t -> int
  (** Number of recorded observations. *)

  val total : t -> float
  (** Sum of recorded durations, seconds. *)

  val name : t -> string
end

(** Fixed-bucket latency/size histograms. A histogram owns an increasing
    array of finite upper bounds [b_0 < … < b_{n-1}] and [n + 1]
    buckets: observation [x] lands in the first bucket with [x <= b_i],
    or in the overflow bucket when [x > b_{n-1}]. Buckets are fixed at
    creation, so observing allocates nothing. *)
module Histogram : sig
  type t

  val default_bounds : float array
  (** Log-spaced second-scale bounds ([1e-6 … 10.0]), suited to
      per-request solve times from microseconds to seconds. *)

  val make : ?bounds:float array -> string -> t
  (** [make ?bounds name] registers (idempotently — if [name] already
      exists its original bounds win and [?bounds] is ignored) a
      histogram. Raises [Invalid_argument] if [bounds] is empty, not
      strictly increasing, or not finite. *)

  val observe : t -> float -> unit
  (** Record one observation, when {!enabled}. *)

  val count : t -> int
  (** Total observations. *)

  val sum : t -> float
  (** Sum of observed values. *)

  val mean : t -> float
  (** [sum / count], or [0.] when empty. *)

  val bounds : t -> float array
  (** The finite upper bounds (a copy). *)

  val buckets : t -> int array
  (** Per-bucket counts (a copy), length [Array.length (bounds t) + 1];
      the final cell is the overflow bucket. *)

  val bucket_quantile : bounds:float array -> int array -> float -> float
  (** [bucket_quantile ~bounds buckets q] (with [0 <= q <= 1]) is the
      upper bound of the first {e non-empty} bucket at which the
      cumulative count reaches [q] times the total count — an upper
      estimate of the q-quantile at bucket resolution. [buckets] has one
      cell per bound plus the overflow cell. An empty bucket never
      carries the quantile, so [q = 0] reports the first non-empty
      bucket's bound. [infinity] when the quantile falls in the overflow
      bucket; [0.] when every bucket is empty. The one bucket-quantile
      rule behind {!quantile}, the [Export] table and the figure
      harness's delta quantiles. *)

  val quantile : t -> float -> float
  (** [quantile t q] is [bucket_quantile ~bounds:(bounds t) (buckets t) q]:
      an upper estimate of the q-quantile at bucket resolution;
      [infinity] when it falls in the overflow bucket, [0.] when the
      histogram is empty. *)

  val name : t -> string
end

(** Nestable timed regions. [Span.run "online_cp.admit" f] times [f] and
    records the duration into a histogram (with
    {!Histogram.default_bounds}) named by the full span path: nested
    spans concatenate with ["/"], so a span ["steiner"] inside
    ["online_cp.admit"] records into ["online_cp.admit/steiner"].
    Distinct call paths therefore get distinct distributions for free. *)
module Span : sig
  val run : string -> (unit -> 'a) -> 'a
  (** Run a function inside a named span. When {!enabled} is [false]
      this is exactly [f ()] — no clock read, no allocation. The
      duration is recorded (and the span popped) even if [f] raises. *)

  val current : unit -> string option
  (** Full path of the innermost open span, if any — useful for
      attributing ad-hoc measurements to the running request. *)
end

(** {1 Export} *)

(** Snapshots of every registered instrument, and serialisers for them.

    A snapshot is an ordinary value: exporters are pure functions of it,
    and {!of_csv} / {!of_json} invert {!to_csv} / {!to_json} exactly
    (floats are printed with round-trip precision), so external tooling
    — and the round-trip tests — can reconstruct the numbers without
    this library. *)
module Export : sig
  type metric =
    | Counter of string * int
    | Gauge of string * float
    | Timer of { name : string; count : int; total : float }
    | Histogram of {
        name : string;
        count : int;
        sum : float;
        bounds : float array;
        buckets : int array;
      }
  (** One exported instrument. Field meanings match the accessors of the
      corresponding instrument modules. *)

  type snapshot = metric list
  (** All instruments, grouped by kind (counters, then gauges, timers,
      histograms), each group sorted by name — registration order would
      depend on which domain first touched an instrument, so name order
      is what keeps two exports of the same run diffable across [--jobs]
      settings. *)

  val snapshot : unit -> snapshot
  (** Capture the current values of every registered instrument. *)

  val to_csv : snapshot -> string
  (** CSV with one row per instrument:
      [counter,<name>,<value>] · [gauge,<name>,<value>] ·
      [timer,<name>,<count>,<total>] ·
      [histogram,<name>,<count>,<sum>,<bounds>,<buckets>], where
      [<bounds>] and [<buckets>] are [;]-separated. No header row.
      Floats round-trip exactly through {!of_csv}. *)

  val of_csv : string -> snapshot
  (** Parse {!to_csv} output. Raises [Failure] on rows it does not
      recognise. *)

  val to_json : snapshot -> string
  (** A JSON object with [counters], [gauges], [timers] and
      [histograms] sub-objects keyed by instrument name. All values are
      finite JSON numbers (or arrays/objects of them). *)

  val of_json : string -> snapshot
  (** Parse {!to_json} output (a minimal JSON reader — objects, arrays,
      strings without escapes, numbers — sufficient for snapshots, not a
      general JSON parser). Raises [Failure] on malformed input. *)

  val pp_table : Format.formatter -> snapshot -> unit
  (** Human-readable report: counters and gauges as aligned name/value
      lines, timers with count/total/mean, histograms with count, mean,
      p50/p95/p99 estimates and non-empty buckets. *)

  val print_table : out_channel -> unit
  (** [pp_table] of a fresh {!snapshot}, to a channel (the CLIs print to
      [stderr] so stdout stays machine-readable). Instruments that never
      fired are omitted; prints a placeholder line when nothing fired at
      all. *)
end
