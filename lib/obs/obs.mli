(** Zero-dependency, allocation-light metrics and tracing.

    Every hot layer of the system — the CSR graph core, the lazy
    shortest-path engine, the SDN resource substrate, the admission
    algorithms — registers named instruments here at module
    initialisation and records into them while running. Recording is
    gated on a single process-wide switch, {!enabled}: when it is [false]
    (the default) every recording call reduces to one boolean load and a
    branch, so instrumented code paths stay within noise of their
    uninstrumented versions and figure reproductions remain
    byte-identical. The [--stats] flag of [bin/nfvm_cli] flips the
    switch and dumps a report on exit.

    Instruments are registered globally by name, in creation order, and
    live for the whole process: constructors are idempotent, so two
    modules asking for the same (kind, name) pair share one instrument —
    this is how an algorithm attributes the shortest-path engine's
    process-wide counters to itself by reading them before and after a
    solve. Names may use [A-Za-z0-9], [.], [_], [-] and [/]; the
    conventional shape is ["layer.event"], e.g.
    ["sp_engine.cache_hits"].

    {b Domains.} Every domain records into its own {e store}: one
    name-keyed registry per instrument kind. The main domain's store is
    the global registry that {!Export} reads; a worker domain's store
    (the [Experiments.Pool] harness spawns them, or code spawns one
    directly) is private to it, so a worker never mutates shared state.
    [make] registers the name in the calling domain's store, and a
    record in a worker lands in its store's cell of the handle's name,
    whichever domain made the handle; reads from a worker see that
    domain's unmerged contribution and register nothing, so before/after
    delta attribution keeps working inside a worker. After joining a
    worker, the main domain folds its store back with
    {!Sharding.merge}: counters sum, histograms add bucket-wise, and
    every name the worker registered is registered, so the merged
    registry depends neither on merge order nor on which domain ran
    what — a figure family's snapshot is the same under every [--jobs]
    setting, also in a fresh process ([test/obs_jobs.t]). {!enabled} and
    {!clock} are plain refs shared by all domains: set them before
    spawning workers and leave them alone while workers run. *)

val enabled : bool ref
(** Master switch, default [false]. All recording operations ({!Counter.incr},
    {!Histogram.observe}, {!Span.run} timing, …) are no-ops while it is
    [false]; registration and read-out work regardless. *)

val clock : (unit -> float) ref
(** Time source used by {!Span.run} (and by layers that time a region
    themselves), in seconds. The library default
    is [Sys.time] (processor time), which is process-wide: under a
    multi-domain run a worker's span durations include CPU burnt by
    sibling domains. Front ends that want per-request wall time install
    a monotonic clock here ([nfvm] does, unless [--fake-clock] asks for
    the deterministic per-domain fake clock the determinism tests use). *)

val reset_all : unit -> unit
(** Zero every registered instrument (counts, sums, buckets). The
    instruments themselves stay registered. Benchmarks call this between
    phases so each phase's snapshot is self-contained. Called from a
    worker domain it zeroes only that domain's store. *)

(** Per-domain store hand-off for parallel harnesses. A worker domain's
    registrations and records accumulate in its private store; the code
    that joins the worker moves them into the global registry:

    {[
      let worker () = ...work...; Obs.Sharding.take () in
      let shards = List.map Domain.join (List.map Domain.spawn workers) in
      List.iter Obs.Sharding.merge shards
    ]}

    Every kind merges by summing, so the order of the merges does not
    matter. Nothing here is gated on {!enabled}: when recording was
    disabled the shard holds only the names the worker registered, each
    at zero. *)
module Sharding : sig
  type shard

  val take : unit -> shard
  (** Detach and return the calling domain's store, leaving the domain
      an empty one. In the main domain (whose store is the global
      registry) this returns an empty shard. Call as the last thing a
      worker does, and hand the result to the joining domain. *)

  val merge : shard -> unit
  (** Fold a worker store into the global registry: counters sum,
      histogram counts, sums and buckets add, and every instrument the
      worker registered is registered by the merge, as a main-domain
      [make] would. Must be called from the main domain; raises
      [Invalid_argument] elsewhere. *)
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
  (** Current count. Reads are never gated and register nothing. In a
      worker domain this is the domain's own unmerged contribution (0
      before its first record), which keeps before/after attribution
      deltas correct under parallel runs. *)

  val name : t -> string
end

(** Fixed-bucket latency/size histograms. Every histogram shares one
    bucket layout: the finite upper bounds {!Histogram.default_bounds}
    [b_0 < … < b_{n-1}] and [n + 1] buckets. Observation [x] lands in
    the first bucket with [x <= b_i], or in the overflow bucket when
    [x > b_{n-1}]. Observing allocates nothing. *)
module Histogram : sig
  type t

  val default_bounds : float array
  (** The bucket bounds of every histogram: log-spaced seconds
      ([1e-6 … 10.0]), suited to per-request solve times from
      microseconds to seconds. *)

  val make : string -> t
  (** Idempotent per name, like {!Counter.make}. *)

  val observe : t -> float -> unit
  (** Record one observation, when {!enabled}. *)

  val count : t -> int
  (** Total observations. *)

  val sum : t -> float
  (** Sum of observed values. *)

  val mean : t -> float
  (** [sum / count], or [0.] when empty. *)

  val buckets : t -> int array
  (** Per-bucket counts (a copy), length
      [Array.length default_bounds + 1]; the final cell is the overflow
      bucket. *)

  val bucket_quantile : int array -> float -> float
  (** [bucket_quantile buckets q] (with [0 <= q <= 1]) is the
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
  (** [quantile t q] is [bucket_quantile (buckets t) q]:
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

(** Snapshots of every registered instrument, and their one file format.

    A snapshot is an ordinary value: {!Export.to_json} is a pure
    function of it. *)
module Export : sig
  type metric =
    | Counter of string * int
    | Histogram of {
        name : string;
        count : int;
        sum : float;
        buckets : int array;
      }
  (** One exported instrument. Field meanings match the accessors of the
      corresponding instrument modules. *)

  type snapshot = metric list
  (** All instruments, grouped by kind (counters, then histograms), each
      group sorted by name — registration order would depend on which
      domain first touched an instrument, so name order is what keeps
      two exports of the same run diffable across [--jobs] settings. *)

  val snapshot : unit -> snapshot
  (** Capture the current values of every instrument registered in the
      calling domain's store (the global registry in the main domain). *)

  val to_json : snapshot -> string
  (** A JSON object with [counters] and [histograms] sub-objects keyed
      by instrument name. Each histogram carries [count], [sum],
      [bounds] ({!Histogram.default_bounds}) and [buckets]. All values
      are finite JSON numbers, floats printed with round-trip precision
      ([%.17g]). *)

  val print_table : out_channel -> unit
  (** Human-readable report of a fresh {!snapshot}, to a channel (the
      CLIs print to [stderr] so stdout stays machine-readable): counters
      as aligned name/value lines, histograms with count, mean,
      p50/p95/p99 estimates and non-empty buckets. Instruments that never
      fired are omitted; prints a placeholder line when nothing fired at
      all. *)
end
