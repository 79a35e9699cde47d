(** Declarative experiment specifications.

    An experiment of the evaluation section is a {e value}: a set of
    {!sweep}s (parameter grids whose points are computed independently,
    each from its own deterministic RNG) and a set of {!figure_def}s
    that say which point's metric supplies each (x, y) of each output
    series. {!Runner} owns everything around that value — {!Pool}
    fan-out with per-point seeds, telemetry capture, histogram-sourced
    timing, figure assembly, CSV/snapshot output — so an experiment
    module contains only its science: the per-point function and the
    declared shape of its outputs.

    The registry ({!Registry}) holds one {!t} per experiment family;
    the CLI enumerates it instead of hard-coding figure lists. *)

type point_result = (string * float) list
(** Named metrics one grid point computes. Names are free-form and
    local to the spec; a metric may be [nan] when the point has no
    value for it (it is rendered as [nan]). *)

type sweep = {
  key : string;
      (** [Pool.point_seed] figure key (["fig5"], ["ablA1"], …). Every
          per-point RNG stream derives from it, so renaming a key moves
          every non-timing value of its figures; sweeps that share a key
          see the same RNG at the same point (matched runs). *)
  points : int;  (** grid size; point indices are [0 .. points - 1] *)
  point : rng:Topology.Rng.t -> int -> point_result;
      (** The per-point function. It must derive all randomness from
          [rng] (or re-derive a shared seed via {!Pool.point_seed}, for
          grids whose points race on one common input) and keep its
          mutable state local — the {!Pool} determinism contract. *)
}

type cell = {
  x : float;  (** x value this cell contributes *)
  sweep : int;  (** index into {!instance.sweeps} *)
  point : int;  (** point index within that sweep *)
  metric : string;  (** which of the point's metrics supplies y *)
}

type series_def = { label : string; cells : cell list }

type figure_def = {
  fid : string;  (** e.g. ["fig5a"] *)
  title : string;
  xlabel : string;
  ylabel : string;
  notes : string list;
  series : series_def list;
}

type instance = {
  sweeps : sweep list;
  figures : figure_def list;
}
(** A fully parameterised experiment: every default (request count,
    sizes, loads) already resolved. *)

type ledger = {
  total : string;
  parts : string list;
}
(** A conservation identity over a run's telemetry: the counter [total]
    equals the sum of the counters [parts] (an absent counter reads 0).
    Declared per family, checked on every smoke run by the registry
    invariance test. *)

val repair_ledger : ledger
(** [repair.attempted = patched + migrated + readmitted + dropped]:
    every repair attempt ends in exactly one tier. *)

val admission_ledger : ledger
(** [online_cp.admits = online_cp.admitted + Σ online_cp.rejected.*]:
    every Online_CP decision ends admitted or with exactly one
    rejection reason. *)

val restoration_ledger : ledger
(** [restoration.attempted = restored + failed]. *)

type t = {
  id : string;
      (** registry key; also the CLI subcommand *)
  doc : string;  (** one-line description, shown by the CLI *)
  instance : seed:int -> requests:int option -> instance;
      (** [seed] is also what the runner hands {!Pool.map}; it is passed
          here so point functions that race several algorithms on one
          shared input can re-derive that input's seed (the
          [Pool.point_seed ~index:0] idiom) or, for designed instances,
          use the raw seed directly. *)
  smoke : seed:int -> instance;
      (** The family at reduced scale — same figures, smaller grid
          values (sizes, request counts) — fast enough to run on every
          test pass. The golden CSVs under [test/golden] and the
          [--jobs] invariance test both run exactly this instance, so
          adding a family to [Registry.all] is all it takes to cover
          it. *)
  ledgers : ledger list;
      (** identities the family's telemetry must satisfy on any run *)
}

val make :
  id:string ->
  doc:string ->
  ?ledgers:ledger list ->
  smoke:(seed:int -> instance) ->
  (seed:int -> requests:int option -> instance) ->
  t
(** [ledgers] defaults to none. *)

val grid :
  key:string -> 'p list -> (rng:Topology.Rng.t -> 'p -> point_result) -> sweep
(** [grid ~key params f] is the sweep whose point [i] computes
    [f ~rng p] for the [i]-th element [p] of [params]: one point per
    parameter, in list order. A point that must know more than its
    parameter (say, the seed of an input it shares with other points)
    carries that in the parameter. *)

val cells : sweep:int -> 'p list -> ('p -> (float * string) list) -> cell list
(** [cells ~sweep params pick] is what a series reads off the grid that
    [grid] built from [params] (sweep [sweep] of the instance): for each
    parameter [p], in grid order, one cell per [(x, metric)] pair of
    [pick p] at [p]'s point. [pick] returns [[]] for points outside the
    series. *)

val concat_instances : instance list -> instance
(** Combine sub-experiments into one instance: sweeps are concatenated
    in order and every figure's cell [sweep] indices are shifted past
    the sweeps declared before it. *)

val assemble : instance -> point_result array array -> Exp_common.figure list
(** [assemble inst results] materialises the declared figures from the
    computed grid ([results.(s).(p)] is sweep [s]'s point [p]). Raises
    [Invalid_argument] on a malformed spec, caught loudly: a cell that
    references a sweep, point or metric the grid does not have, a series
    with two cells at one x, or a figure with two series of one label
    (the CSV and the rendered table key a column by its label and a row
    by its x, so a repeat would silently drop values). *)
