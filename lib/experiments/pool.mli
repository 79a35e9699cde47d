(** Fixed-domain parallel map for the figure harness.

    Every figure of the evaluation section is embarrassingly parallel
    per data point, and every data point derives all of its randomness
    from one [Topology.Rng.t]. [Pool.map] fans the points of a figure
    out across a fixed set of worker domains (no work stealing: one
    shared atomic index, claimed in order) and returns the results in
    point order.

    {b Determinism contract.} Each point's generator is seeded with
    {!point_seed}[ ~figure ~index ~seed] — a pure function of the figure
    id, the point index and the user's [--seed] — regardless of how many
    domains run or which domain claims the point. A point function that
    derives everything from its [rng] argument (and keeps its mutable
    state local) therefore produces byte-identical figure tables and
    CSVs under [--jobs 1] and [--jobs N]. Telemetry recorded by worker
    domains lands in per-domain [Nfv_obs] shards that [map] merges back
    (in spawn order) after joining the workers, so [--stats] keeps
    working under [--jobs N]. *)

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)] — leave one core
    for the coordinating main domain. *)

val set_jobs : int -> unit
(** Set the process-wide worker count {!map} uses — the one way to set
    it: [0] means auto ({!default_jobs}), [1] the sequential
    in-main-domain path, [n > 1] that many worker domains. Raises
    [Invalid_argument] on negative values. The library starts at [1]
    (sequential) so programmatic users opt in explicitly; the CLIs call
    this once at startup from [--jobs], whose flag default is [0]
    (auto). *)

val get_jobs : unit -> int
(** The resolved process-wide worker count ([0] already mapped to
    {!default_jobs}). *)

val point_seed : figure:string -> index:int -> seed:int -> int
(** The deterministic per-point RNG seed: a SplitMix-style mix of an
    FNV-1a hash of [figure] with [seed] and [index]. Non-negative, and
    independent of jobs/scheduling by construction. Exposed so figures
    with several points sharing one input (e.g. four algorithms racing
    on the same network) can derive the shared input's seed
    explicitly. *)

val map :
  figure:string ->
  seed:int ->
  int ->
  (rng:Topology.Rng.t -> int -> 'a) ->
  'a list
(** [map ~figure ~seed n f] computes
    [f ~rng:(Rng.create (point_seed ~figure ~index:i ~seed)) i] for
    [i = 0 .. n-1] and returns the results in index order.

    With a job count ({!get_jobs}) of 1 (or [n <= 1], or when already
    inside a worker domain) everything runs inline in the calling
    domain, in index order, with no domain spawned. Otherwise
    [min (get_jobs ()) n] domains are spawned; each claims indices from
    a shared atomic counter, runs [f], and finally hands its [Nfv_obs]
    shard back to be merged. [f] must confine its effects to state reachable
    from its own arguments (networks built from [rng], local
    accumulators); the figure modules obey this. If a point raises, the
    first exception (in domain spawn order) is re-raised after all
    workers have been joined and their telemetry merged. *)
