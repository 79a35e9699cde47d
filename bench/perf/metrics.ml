(* End-to-end and per-layer metrics, derived from the reps' own samples
   and — for the layers — from the Nfv_obs snapshot of the traced rep. *)

module Obs = Nfv_obs.Obs
module W = Workloads

type t = { name : string; value : float; unit : string; samples : int }

let metric ?(samples = 1) name unit value = { name; value; unit; samples }

(* percentile by linear interpolation between closest ranks *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy a in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median l = percentile (Array.of_list l) 0.5
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let div a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Returns (declared, extras): the declared metrics are exactly the
   BENCHMARK.json [end_to_end] list and exist on every workload; the
   extras exist only where their layer runs. *)
let end_to_end ~setups ~(reps : W.rep list) ~heap_words =
  let ops = sum (fun (r : W.rep) -> float_of_int r.W.ops) reps in
  (* Timings are the best rep's. Interference from other tenants of a
     shared host only ever slows a rep down, and it comes in steps that
     last seconds (reps of one run were measured at 0.6x, then 1x), so
     the fastest rep is the least disturbed estimate; a median still
     moves with the share of the run that fell in a slow step. *)
  let best_percentile field q =
    List.fold_left
      (fun best r ->
        if Array.length (field r) = 0 then best
        else Float.min best (percentile (field r) q))
      Float.infinity reps
  in
  let count field = List.fold_left (fun n r -> n + Array.length (field r)) 0 reps in
  let decisions (r : W.rep) = r.W.decisions and recoveries (r : W.rep) = r.W.recoveries in
  let nd = count decisions and nr = count recoveries in
  let exact = (List.hd reps).W.exact in
  let declared =
    [
      metric "setup_s" "s" (median setups) ~samples:(List.length setups);
      metric "ops_per_s" "ops/s"
        (List.fold_left
           (fun best (r : W.rep) -> Float.max best (float_of_int r.W.ops /. r.W.wall_s))
           0.0 reps)
        ~samples:(List.length reps);
      metric "decision_p50_us" "us" (best_percentile decisions 0.5) ~samples:nd;
      metric "decision_p95_us" "us" (best_percentile decisions 0.95) ~samples:nd;
      metric "heap_peak_mb" "MB" (float_of_int heap_words *. 8.0 /. 1e6);
      metric "alloc_words_per_op" "words"
        (sum (fun (r : W.rep) -> r.W.alloc_words) reps /. ops);
      metric "accept_ratio" "ratio" (List.assoc "accept_ratio" exact);
    ]
  in
  let extras =
    (if nr = 0 then []
     else
       [
         metric "recovery_p50_us" "us" (best_percentile recoveries 0.5) ~samples:nr;
         metric "recovery_p99_us" "us" (best_percentile recoveries 0.99) ~samples:nr;
       ])
    @ List.filter_map
        (fun (name, unit) ->
          Option.map (metric name unit) (List.assoc_opt name exact))
        [ ("survival", "ratio"); ("restored_frac", "ratio"); ("mean_cost", "cost") ]
  in
  (declared, extras)

let counter snap name =
  List.find_map
    (function Obs.Export.Counter (n, v) when n = name -> Some v | _ -> None)
    snap
  |> Option.value ~default:0

(* (count, seconds) of one span or manual histogram *)
let hist snap name =
  List.find_map
    (function
      | Obs.Export.Histogram { name = n; count; sum; _ } when n = name ->
        Some (count, sum)
      | _ -> None)
    snap
  |> Option.value ~default:(0, 0.0)

(* calls of a span under any parent path *)
let span_calls snap leaf =
  let suffix = "/" ^ leaf in
  List.fold_left
    (fun acc -> function
      | Obs.Export.Histogram { name; count; _ }
        when name = leaf || String.ends_with ~suffix name ->
        acc + count
      | _ -> acc)
    0 snap

(* estimated total seconds of every interval of a kind, from the mean
   of its clean intervals *)
let interval_s (i : W.interval) =
  if i.W.clean = 0 then 0.0
  else i.W.clean_ns /. float_of_int i.W.clean *. float_of_int i.W.n *. 1e-9

let interval_mean_us (i : W.interval) =
  if i.W.clean = 0 then 0.0 else i.W.clean_ns /. float_of_int i.W.clean *. 1e-3

(* Per-layer metrics of the traced rep. Layer times are shares of its
   wall time, so every workload reports every declared metric even
   where a layer never runs (a share of 0); mean call times in µs are
   extras, present only where the layer ran. GC rates come from the
   untraced reps, which tracing cannot perturb. *)
let per_layer ~(traced : W.rep) ~snap ~(reps : W.rep list) ~untraced_rate =
  let c = counter snap in
  let ops = traced.W.ops and wall = traced.W.wall_s in
  let per_op x = div x ops in
  let frac s = s /. wall in
  let admit_n, admit_s = hist snap "online_cp.admit" in
  let attempt_n, attempt_s = hist snap "repair.attempt" in
  let patch_n, patch_s = hist snap "repair.patch" in
  let migrate_n, migrate_s = hist snap "repair.migrate" in
  let readmit_n, readmit_s = hist snap "repair.readmit" in
  let pass_n, pass_s = hist snap "restoration.pass" in
  let _, pass_admit_s = hist snap "restoration.pass/online_cp.admit" in
  let solve_n, solve_s = hist snap "appro_multi.solve" in
  let admits = span_calls snap "online_cp.admit" in
  let dynamic = traced.W.arrive.W.n > 0 in
  let arrive_s = interval_s traced.W.arrive in
  let attempted = c "repair.attempted" in
  let restore_attempted = c "restoration.attempted" in
  let untraced_ops = sum (fun (r : W.rep) -> float_of_int r.W.ops) reps in
  let gc f = sum f reps in
  let combinations = Option.value ~default:0 (List.assoc_opt "combinations" traced.W.work) in
  let declared =
    [
      metric "paths.dijkstras_per_op" "count" (per_op (c "dijkstra.runs"));
      metric "paths.relaxations_per_op" "count" (per_op (c "dijkstra.relaxations"));
      metric "paths.heap_pops_per_op" "count" (per_op (c "dijkstra.heap_pops"));
      metric "paths.edges_scanned_per_op" "count" (per_op (c "dijkstra.edges_scanned"));
      metric "sp_engine.hit_ratio" "ratio"
        (div (c "sp_engine.cache_hits") (c "sp_engine.cache_hits" + c "sp_engine.cache_misses"));
      metric "sp_engine.evictions_per_op" "count" (per_op (c "sp_engine.evictions"));
      metric "sp_window.reuse_ratio" "ratio"
        (div (c "sp_window.engine_reuses")
           (c "sp_window.engine_reuses" + c "sp_window.engine_creates"));
      metric "network.epoch_bumps_per_op" "count" (per_op (c "network.epoch_bumps"));
      metric "network.allocations_per_op" "count" (per_op (c "network.allocations"));
      metric "network.releases_per_op" "count" (per_op (c "network.releases"));
      metric "online_cp.admit_time_frac" "frac" (frac admit_s);
      metric "online_cp.dijkstras_per_admit" "count" (div (c "online_cp.dijkstras") admits);
      metric "online_cp.pruned_servers_per_admit" "count"
        (div (c "online_cp.pruned.servers") admits);
      metric "dynamic.loop_self_frac" "frac"
        (if dynamic then frac (wall -. admit_s -. attempt_s -. pass_s) else 0.0);
      metric "dynamic.arrive_overhead_frac" "frac"
        (if dynamic then frac (arrive_s -. admit_s) else 0.0);
      metric "dynamic.depart_time_frac" "frac" (frac (interval_s traced.W.depart));
      metric "fault.strike_time_frac" "frac" (frac (interval_s traced.W.strike));
      metric "fault.victims_per_strike" "count" (div (c "fault.victims") traced.W.strike.W.n);
      metric "repair.attempt_time_frac" "frac" (frac attempt_s);
      metric "repair.patch_time_frac" "frac" (frac patch_s);
      metric "repair.migrate_time_frac" "frac" (frac migrate_s);
      metric "repair.readmit_time_frac" "frac" (frac readmit_s);
      metric "repair.patched_frac" "ratio" (div (c "repair.patched") attempted);
      metric "repair.migrated_frac" "ratio" (div (c "repair.migrated") attempted);
      metric "repair.readmitted_frac" "ratio" (div (c "repair.readmitted") attempted);
      metric "repair.dropped_frac" "ratio" (div (c "repair.dropped") attempted);
      metric "repair.migrate_pruned_per_attempt" "count"
        (div (c "repair.migrate.pruned") attempted);
      metric "restore.pass_time_frac" "frac" (frac pass_s);
      metric "restore.pass_self_time_frac" "frac" (frac (pass_s -. pass_admit_s));
      metric "restore.attempts_per_pass" "count" (div restore_attempted pass_n);
      metric "restore.success_ratio" "ratio"
        (div (c "restoration.restored") restore_attempted);
      metric "appro_multi.solve_time_frac" "frac" (frac solve_s);
      metric "appro_multi.dijkstras_per_solve" "count" (div (c "appro_multi.dijkstras") solve_n);
      metric "appro_multi.relaxations_per_solve" "count"
        (div (c "appro_multi.relaxations") solve_n);
      metric "appro_multi.combinations_per_solve" "count" (div combinations solve_n);
      metric "gc.minor_collections_per_kop" "count"
        (gc (fun r -> float_of_int r.W.minor_gcs) /. untraced_ops *. 1000.0);
      metric "gc.major_collections_per_kop" "count"
        (gc (fun r -> float_of_int r.W.major_gcs) /. untraced_ops *. 1000.0);
      metric "gc.promoted_words_per_op" "words" (gc (fun r -> r.W.promoted_words) /. untraced_ops);
      metric "obs.trace_overhead_frac" "frac"
        (1.0 -. (float_of_int ops /. wall /. untraced_rate));
    ]
  in
  let mean_us name n s = if n = 0 then None else Some (metric name "us" (s /. float_of_int n *. 1e6)) in
  let interval_us name (i : W.interval) =
    if i.W.clean = 0 then None else Some (metric name "us" (interval_mean_us i))
  in
  let extras =
    List.filter_map Fun.id
      [
        mean_us "online_cp.admit_mean_us" admit_n admit_s;
        (if dynamic && admit_n > 0 then
           Some
             (metric "dynamic.arrive_overhead_us" "us"
                (interval_mean_us traced.W.arrive -. (admit_s /. float_of_int admit_n *. 1e6)))
         else None);
        interval_us "dynamic.depart_mean_us" traced.W.depart;
        interval_us "fault.strike_mean_us" traced.W.strike;
        mean_us "repair.attempt_mean_us" attempt_n attempt_s;
        mean_us "repair.patch_mean_us" patch_n patch_s;
        mean_us "repair.migrate_mean_us" migrate_n migrate_s;
        mean_us "repair.readmit_mean_us" readmit_n readmit_s;
        mean_us "restore.pass_mean_us" pass_n pass_s;
        mean_us "restore.pass_self_us" pass_n (pass_s -. pass_admit_s);
        mean_us "appro_multi.solve_mean_us" solve_n solve_s;
      ]
  in
  (declared, extras)

let counters snap =
  List.filter_map
    (function Obs.Export.Counter (n, v) -> Some (n, v) | _ -> None)
    snap
