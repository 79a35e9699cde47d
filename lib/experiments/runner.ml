module Obs = Nfv_obs.Obs

(* ---- histogram / counter probes ----

   A probe captures an instrument's per-domain view at creation; the
   read-out is the delta accumulated since. Inside a Pool worker the
   view is the domain's unmerged shard and in the main domain it is the
   global registry, so the delta is correct under any --jobs setting.
   Under the fake clock every span duration is an exact multiple of the
   dyadic tick and histogram sums accumulate those multiples exactly,
   which is what keeps histogram-sourced timing columns byte-identical
   across jobs settings. *)

type span_probe = {
  h : Obs.Histogram.t;
  c0 : int;
  s0 : float;
  b0 : int array;  (* per-bucket counts at creation, for delta quantiles *)
}

let span_probe name =
  let h = Obs.Histogram.make name in
  {
    h;
    c0 = Obs.Histogram.count h;
    s0 = Obs.Histogram.sum h;
    b0 = Obs.Histogram.buckets h;
  }

let span_count p = Obs.Histogram.count p.h - p.c0

let span_mean_ms p =
  let dc = span_count p in
  if dc = 0 then 0.0
  else 1000.0 *. (Obs.Histogram.sum p.h -. p.s0) /. float_of_int dc

(* Obs.Histogram.bucket_quantile over the *delta* buckets: the same
   rule as the histogram's own quantile, restricted to what happened
   after the probe *)
let span_quantile_ms p q =
  if q < 0.0 || q > 1.0 then invalid_arg "Runner.span_quantile_ms";
  let now = Obs.Histogram.buckets p.h in
  let delta = Array.mapi (fun i c -> c - p.b0.(i)) now in
  1000.0
  *. Obs.Histogram.bucket_quantile ~bounds:(Obs.Histogram.bounds p.h) delta q

type counter_probe = { c : Obs.Counter.t; v0 : int }

let counter_probe name =
  let c = Obs.Counter.make name in
  { c; v0 = Obs.Counter.value c }

let counter_delta p = Obs.Counter.value p.c - p.v0

(* ---- running an instance ---- *)

(* Recording must be on while the sweeps run — the "(ms per request)"
   columns are read from the span histograms, the stress tables from the
   rejection counters — whether or not the caller asked for --stats.
   The previous switch state is restored afterwards so a plain figure
   run leaves the process as it found it. *)
let with_recording f =
  let was = !Obs.enabled in
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := was) f

let run_sweeps ~seed (inst : Spec.instance) =
  with_recording @@ fun () ->
  Array.of_list
    (List.map
       (fun (s : Spec.sweep) ->
         Array.of_list (Pool.map ~figure:s.key ~seed s.points s.point))
       inst.sweeps)

let figures ?(seed = 1) inst =
  Spec.assemble inst (run_sweeps ~seed inst)

let obs_json_path ~dir id = Filename.concat dir (id ^ ".obs.json")

let write_obs_snapshot ~dir id =
  Exp_common.ensure_dir dir;
  let path = obs_json_path ~dir id in
  let oc = open_out path in
  output_string oc (Obs.Export.(to_json (snapshot ())));
  output_char oc '\n';
  close_out oc;
  path

let run ?(seed = 1) ?requests ?obs_out (spec : Spec.t) =
  let inst = spec.Spec.instance ~seed ~requests in
  match obs_out with
  | None -> figures ~seed inst
  | Some dir ->
    (* self-contained per-scenario snapshot: zero every instrument
       first, so the JSON next to this family's CSVs holds exactly this
       family's telemetry and two runs diff cleanly *)
    Obs.reset_all ();
    let figs = figures ~seed inst in
    ignore (write_obs_snapshot ~dir spec.Spec.id);
    figs
