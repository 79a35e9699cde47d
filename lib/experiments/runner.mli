(** The one experiment runner: everything around a {!Spec} value.

    [run] resolves a spec's parameters, fans its sweeps' points across
    the {!Pool} (telemetry recording forced on for the duration, since
    the timing columns are read from the [Nfv_obs] span histograms),
    assembles the declared figures, and optionally writes a
    self-contained [Obs.Export.to_json] snapshot next to the family's
    outputs so performance regressions are diffable per scenario. *)

val run :
  ?seed:int ->
  ?requests:int ->
  ?obs_out:string ->
  Spec.t ->
  Exp_common.figure list
(** Run a registered spec. With [obs_out:DIR], every instrument is
    zeroed before the sweeps and a snapshot of exactly this family's
    telemetry is written to [DIR/<id>.obs.json] after them
    ([Obs.Export.to_json] of the snapshot and a newline). Zeroing makes
    the snapshot self-contained, at the price of resetting whatever a
    surrounding [--stats] accumulation had collected so far. *)

val figures : ?seed:int -> Spec.instance -> Exp_common.figure list
(** Run an already-parameterised instance, such as a spec's [smoke].
    Recording is forced on while the sweeps run and restored
    afterwards. *)

val obs_json_path : dir:string -> string -> string
(** [obs_json_path ~dir id] — where {!run} puts the snapshot for
    [id]: [dir/<id>.obs.json]. *)

(** {1 Probes}

    Delta readers over the process instruments, for per-point metric
    capture inside sweep point functions. A probe pins the calling
    domain's current view (worker shard or global registry) at creation;
    the readers report what accumulated since, so attribution is exact
    under any [--jobs] setting. *)

type span_probe

val span_probe : string -> span_probe
(** Probe the span histogram of that name (e.g.
    ["appro_multi.solve"]) — the same instrument [--stats] reports. *)

val span_count : span_probe -> int
(** Observations recorded since the probe was created. *)

val span_mean_ms : span_probe -> float
(** Mean milliseconds per observation recorded since the probe was
    created; [0.] when none were. This is the source of every
    "(ms per request)" figure column: per-request span durations from
    the instrumentation layer, not wall-clock division. Under the fake
    clock the value is an exact multiple of the tick (dyadic sums), so
    timing columns stay byte-identical across [--jobs] settings. *)

val span_quantile_ms : span_probe -> float -> float
(** [span_quantile_ms p q] (with [0 ≤ q ≤ 1]) is the q-quantile, in
    milliseconds, of the observations recorded since the probe was
    created, at the histogram's bucket resolution — the upper bound of
    the first bucket at which the cumulative delta count reaches
    [q × total], mirroring [Obs.Histogram.quantile] on the delta, with
    the proviso that an empty bucket never carries the quantile: at
    [q = 0] the answer is the first {e non-empty} bucket's bound, not
    [bounds.(0)]. [0.] when nothing was recorded (any [q]); with a
    single observation every [q] reports that observation's bucket
    bound; [infinity] when the quantile lands in the overflow bucket
    (legitimately rendered as [inf] in CSV). Source of the churn
    tables' p50/p99 repair-latency columns. *)

type counter_probe

val counter_probe : string -> counter_probe
(** Probe a counter by name (e.g. ["online_cp.rejected.over_threshold"]). *)

val counter_delta : counter_probe -> int
(** Increments recorded since the probe was created. *)
