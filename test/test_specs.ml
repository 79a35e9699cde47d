(* The declarative experiment layer: registry completeness, golden
   byte-identity of every family's CSVs under the fake clock, exactness
   of the histogram-sourced timing columns, and the per-scenario
   [--obs-out] snapshot. *)

module Obs = Nfv_obs.Obs
module E = Experiments.Exp_common
module Spec = Experiments.Spec
module Runner = Experiments.Runner

(* every registered family's smoke instance, sequential, fake clock —
   the same runs golden_gen.ml writes. Regenerate after an intentional
   output change with
     dune exec test/golden_gen.exe -- test/golden *)
let smoke_seed = 3

let smoke_figures =
  let memo = Hashtbl.create 16 in
  fun (spec : Spec.t) ->
    match Hashtbl.find_opt memo spec.Spec.id with
    | Some figs -> figs
    | None ->
      E.install_fake_clock ();
      Experiments.Pool.set_jobs 1;
      let figs =
        Runner.figures ~seed:smoke_seed (spec.Spec.smoke ~seed:smoke_seed)
      in
      Hashtbl.replace memo spec.Spec.id figs;
      figs

(* ---- registry completeness ------------------------------------------- *)

let expected_ids =
  [
    "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "ablation"; "dynamic"; "batch";
    "delay"; "tables"; "stress"; "churn"; "dynamic_churn"; "avail"; "restore";
  ]

let test_registry_ids () =
  Alcotest.(check (list string))
    "every family is registered, in presentation order" expected_ids
    (List.map (fun (s : Spec.t) -> s.Spec.id) Experiments.Registry.all)

(* Building an instance is pure — no sweep runs — so the figures it
   declares can be checked for free. *)
let test_declared_figures () =
  List.iter
    (fun (s : Spec.t) ->
      let inst = s.Spec.instance ~seed:1 ~requests:(Some 2) in
      let fids = List.map (fun f -> f.Spec.fid) inst.Spec.figures in
      let sorted = List.sort_uniq compare fids in
      Alcotest.(check int)
        (s.Spec.id ^ ": figure ids unique")
        (List.length fids) (List.length sorted))
    Experiments.Registry.all

(* The goldens pin only the smoke instances; this pins the default-scale
   layout [nfvm <family>] runs. Each family's instance is serialised (sweep
   keys and sizes; figure ids, titles, labels, notes and cells, x in hex
   so every bit counts) and digested. A layout change is announced by
   updating the digest here. *)
let layout_digest (inst : Spec.instance) =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  List.iter
    (fun (s : Spec.sweep) -> add "sweep %S %d\n" s.Spec.key s.Spec.points)
    inst.Spec.sweeps;
  List.iter
    (fun (f : Spec.figure_def) ->
      add "figure %S %S %S %S\n" f.Spec.fid f.Spec.title f.Spec.xlabel
        f.Spec.ylabel;
      List.iter (add "note %S\n") f.Spec.notes;
      List.iter
        (fun (s : Spec.series_def) ->
          add "series %S\n" s.Spec.label;
          List.iter
            (fun (c : Spec.cell) ->
              add "cell %h %d %d %S\n" c.Spec.x c.Spec.sweep c.Spec.point
                c.Spec.metric)
            s.Spec.cells)
        f.Spec.series)
    inst.Spec.figures;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_layouts =
  [
    ("fig5", "69ff8f84a3ca78b65ef3a930f649a534");
    ("fig6", "2b25a3fd7f833307f3906061cdf8edc6");
    ("fig7", "ecb3fb4e43bdfb6e4dc27feb6ed23827");
    ("fig8", "932a833f80c25fded9601c4c93657728");
    ("fig9", "feef792638a4092956f74f7b70dce0cc");
    ("ablation", "1e80334c507a759705080f2ddce5e03c");
    ("dynamic", "18a8759990aa10c192d7a16a75f4bbe6");
    ("batch", "95b6d467201850e6fe9dbbe006554d8e");
    ("delay", "f88ef0c03ff938077cce673f59e0c9aa");
    ("tables", "b98a82e10958b7a39efe71e237a1b55b");
    ("stress", "dee206b58fd5f53dec7ea369ce3645fa");
    ("churn", "25ee817bd6aa8eba2cd09dd21bd3ccbb");
    ("dynamic_churn", "009b8556e467bf59a22cd4dd21aaee8b");
    ("avail", "02aa673602ee04ece365629a6bbd2a88");
    ("restore", "a9b96d312e6760a3e4894f42c4ee3c06");
  ]

let test_default_layouts () =
  let got =
    List.map
      (fun (s : Spec.t) ->
        (s.Spec.id, layout_digest (s.Spec.instance ~seed:1 ~requests:None)))
      Experiments.Registry.all
  in
  Alcotest.(check (list (pair string string)))
    "default-scale layouts" expected_layouts got

(* ---- grids and cells --------------------------------------------- *)

let cell_t =
  Alcotest.testable
    (fun ppf (c : Spec.cell) ->
      Format.fprintf ppf "{x=%g; sweep=%d; point=%d; metric=%S}" c.Spec.x
        c.Spec.sweep c.Spec.point c.Spec.metric)
    ( = )

let test_grid_cells () =
  let params = [ "a"; "bb"; "ccc"; "dddd" ] in
  let sweep =
    Spec.grid ~key:"t" params (fun ~rng:_ p ->
        [ ("len", float_of_int (String.length p)) ])
  in
  Alcotest.(check string) "key" "t" sweep.Spec.key;
  Alcotest.(check int) "one point per parameter" 4 sweep.Spec.points;
  let rng = Topology.Rng.create 1 in
  Alcotest.(check (list (float 0.0)))
    "point i runs on the i-th parameter" [ 1.0; 2.0; 3.0; 4.0 ]
    (List.init 4 (fun i -> List.assoc "len" (sweep.Spec.point ~rng i)));
  let cell x point metric = { Spec.x; sweep = 2; point; metric } in
  Alcotest.(check (list cell_t))
    "grid order, one cell per picked pair at its point"
    [ cell 1.0 0 "m"; cell 3.0 2 "m"; cell 3.5 2 "n" ]
    (Spec.cells ~sweep:2 params (function
      | "a" -> [ (1.0, "m") ]
      | "ccc" -> [ (3.0, "m"); (3.5, "n") ]
      | _ -> []));
  Alcotest.(check (list cell_t))
    "an empty pick reads nothing" []
    (Spec.cells ~sweep:0 params (fun _ -> []))

(* two cells at one x (or two series of one label) would collapse into
   one CSV row (column), so assembly refuses them *)
let test_repeats_refused () =
  let sweep = Spec.grid ~key:"t" [ 1; 1 ] (fun ~rng:_ _ -> [ ("m", 0.0) ]) in
  let figure series =
    {
      Spec.sweeps = [ sweep ];
      figures =
        [
          {
            Spec.fid = "t";
            title = "t";
            xlabel = "x";
            ylabel = "y";
            notes = [];
            series;
          };
        ];
    }
  in
  let results = [| [| [ ("m", 0.0) ]; [ ("m", 1.0) ] |] |] in
  let at_x point = { Spec.x = 1.0; sweep = 0; point; metric = "m" } in
  let refused what series =
    match Spec.assemble (figure series) results with
    | _ -> Alcotest.failf "%s assembled" what
    | exception Invalid_argument _ -> ()
  in
  refused "a repeated x" [ { Spec.label = "s"; cells = [ at_x 0; at_x 1 ] } ];
  refused "a repeated label"
    [
      { Spec.label = "s"; cells = [ at_x 0 ] };
      { Spec.label = "s"; cells = [ at_x 1 ] };
    ]

let check_no_repeats what figs =
  List.iter
    (fun f ->
      let labels = List.map (fun s -> s.E.label) f.E.series in
      if List.length (List.sort_uniq compare labels) <> List.length labels then
        Alcotest.failf "%s: %s repeats a label" what f.E.id;
      List.iter
        (fun s ->
          let xs = List.map fst s.E.points in
          if List.length (List.sort_uniq compare xs) <> List.length xs then
            Alcotest.failf "%s: %s %s repeats an x" what f.E.id s.E.label)
        f.E.series)
    figs

(* a horizon too short to halve keeps each load level once *)
let test_small_horizons () =
  E.install_fake_clock ();
  Experiments.Pool.set_jobs 1;
  let stress = Runner.run ~seed:1 ~requests:4 Experiments.Stress.spec in
  check_no_repeats "stress --requests 4" stress;
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          Alcotest.(check (list (float 0.0)))
            (f.E.id ^ " load levels")
            [ 1.0; 2.0; 4.0 ]
            (List.map fst s.E.points))
        f.E.series)
    stress;
  let churn = Runner.run ~seed:1 ~requests:1 Experiments.Churn.churn in
  check_no_repeats "churn --requests 1" churn;
  Alcotest.(check (list string))
    "churn --requests 1 has one load level"
    [ "survival@1"; "patched@1"; "migrated@1"; "readmitted@1"; "dropped@1";
      "p50_ms@1"; "p99_ms@1" ]
    (List.map (fun s -> s.E.label) (List.hd churn).E.series)

(* every cell of every figure must name a sweep/point/metric the sweeps
   can produce — shape errors surface at assembly, so run the smallest
   family end to end *)
let test_assembly_smoke () =
  E.install_fake_clock ();
  Experiments.Pool.set_jobs 1;
  let figs = Runner.run ~seed:3 ~requests:8 Experiments.Stress.spec in
  Alcotest.(check (list string))
    "stress produces its declared figures" [ "stressA"; "stressB" ]
    (List.map (fun f -> f.E.id) figs);
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          List.iter
            (fun (_, v) ->
              if Float.is_nan v then
                Alcotest.failf "%s/%s has a NaN cell" f.E.id s.E.label)
            s.E.points)
        f.E.series)
    figs

(* the stress tables are counter deltas: admitted + rejections = load *)
let test_stress_conservation () =
  let figs = smoke_figures Experiments.Stress.spec in
  List.iter
    (fun f ->
      match f.E.series with
      | [] -> Alcotest.failf "%s has no series" f.E.id
      | first :: _ ->
        List.iteri
          (fun i (x, _) ->
            let total =
              List.fold_left
                (fun acc s -> acc +. snd (List.nth s.E.points i))
                0.0 f.E.series
            in
            Alcotest.(check (float 0.0))
              (Printf.sprintf "%s: outcomes at load %g sum to the load" f.E.id x)
              x total)
          first.E.points)
    figs

(* ---- matched-RNG baselines -------------------------------------------

   avail and restore re-run dynamic_churn's grid under its sweep key, so
   their baseline treatment (alpha = 0; the default restoration policy)
   must reproduce dynamic_churn's cells bit for bit. Figure X of a
   re-run (availB, restoreB, ...) matches dynchX; series labels are
   [metric@load] in dynamic_churn and [metric@treatment@load] in the
   re-runs. *)

let series_points figs label =
  List.find_map
    (fun f ->
      List.find_map
        (fun s -> if s.E.label = label then Some s.E.points else None)
        f.E.series)
    figs

let check_matched ~family ~treatment =
  let base = smoke_figures Experiments.Churn.dynamic_churn in
  let matched = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          match String.split_on_char '@' s.E.label with
          | [ metric; t; load ] when t = treatment -> (
            let tag = String.sub f.E.id (String.length f.E.id - 1) 1 in
            let twin = List.filter (fun b -> b.E.id = "dynch" ^ tag) base in
            match series_points twin (metric ^ "@" ^ load) with
            | None -> ()
            | Some want ->
              incr matched;
              if
                not
                  (List.equal
                     (fun (x, y) (x', y') -> Float.equal x x' && Float.equal y y')
                     want s.E.points)
              then
                Alcotest.failf "%s %s diverged from dynamic_churn" f.E.id
                  s.E.label)
          | _ -> ())
        f.E.series)
    (smoke_figures family);
  if !matched = 0 then Alcotest.failf "no %s series matched" treatment

let test_matched_baselines () =
  check_matched ~family:Experiments.Churn.avail ~treatment:"a0";
  check_matched ~family:Experiments.Churn.restore
    ~treatment:"replay-smallest-first"

(* the restoration ledger per cell, not just summed over the run *)
let test_restore_cell_ledger () =
  let figs = smoke_figures Experiments.Churn.restore in
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          match String.split_on_char '@' s.E.label with
          | "attempted" :: rest ->
            let get m =
              match series_points [ f ] (String.concat "@" (m :: rest)) with
              | Some p -> List.map snd p
              | None -> Alcotest.failf "%s lacks its %s series" f.E.id m
            in
            List.iter2
              (fun (_, att) (ok, fail) ->
                Alcotest.(check (float 0.0))
                  (Printf.sprintf "%s %s = restored + failed" f.E.id s.E.label)
                  att (ok +. fail))
              s.E.points
              (List.combine (get "restored") (get "failed"))
          | _ -> ())
        f.E.series)
    figs

(* ---- histogram-native timing ----------------------------------------- *)

(* Under the fake clock a span's duration is (clock reads inside + 1)
   ticks exactly; the tick is dyadic so histogram sums of it are exact.
   [span_mean_ms] must therefore be bit-equal to the arithmetic
   prediction, not merely close. *)
let test_span_probe_exact () =
  E.install_fake_clock ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) @@ fun () ->
  let tick = 1.0 /. 8192.0 in
  let p = Runner.span_probe "test_specs.empty" in
  for _ = 1 to 7 do
    Obs.Span.run "test_specs.empty" (fun () -> ())
  done;
  Alcotest.(check int) "7 empty spans recorded" 7 (Runner.span_count p);
  Alcotest.(check (float 0.0))
    "an empty span costs exactly one tick" (1000.0 *. tick)
    (Runner.span_mean_ms p);
  (* k clock reads inside the body -> (k + 1) ticks per span *)
  let q = Runner.span_probe "test_specs.busy" in
  for _ = 1 to 3 do
    Obs.Span.run "test_specs.busy" (fun () ->
        for _ = 1 to 4 do
          ignore (!Obs.clock ())
        done)
  done;
  Alcotest.(check int) "3 busy spans recorded" 3 (Runner.span_count q);
  Alcotest.(check (float 0.0))
    "busy span mean is exactly 5 ticks" (1000.0 *. 5.0 *. tick)
    (Runner.span_mean_ms q)

(* [span_quantile_ms] on degenerate delta histograms: an empty probe is
   0 at every q, a single observation answers every q with its own
   bucket bound, and q = 0 reports the first *non-empty* bucket — not
   [bounds.(0)] (the regression: cum = 0 satisfies >= 0). *)
let test_span_quantile_edges () =
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) @@ fun () ->
  let h = Obs.Histogram.make "test_specs.quantile" in
  (* empty: every q, including the endpoints, is 0 *)
  let p = Runner.span_probe "test_specs.quantile" in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty probe: q=%g is 0" q)
        0.0
        (Runner.span_quantile_ms p q))
    [ 0.0; 0.5; 1.0 ];
  (* one observation in the 1e-3 bucket: every q reports its bound *)
  let p1 = Runner.span_probe "test_specs.quantile" in
  Obs.Histogram.observe h 0.5e-3;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "single sample: q=%g is the sample's bound" q)
        1.0
        (Runner.span_quantile_ms p1 q))
    [ 0.0; 0.5; 1.0 ];
  (* two samples in distinct buckets: q=0 and the median report the
     lower bucket (NOT the histogram's first bound, 0.001 ms), q=1 the
     upper *)
  let p2 = Runner.span_probe "test_specs.quantile" in
  Obs.Histogram.observe h 0.5e-3;
  Obs.Histogram.observe h 0.5e-1;
  Alcotest.(check (float 0.0))
    "two samples: q=0 is the first non-empty bucket" 1.0
    (Runner.span_quantile_ms p2 0.0);
  Alcotest.(check (float 0.0))
    "two samples: median is the lower bucket" 1.0
    (Runner.span_quantile_ms p2 0.5);
  Alcotest.(check (float 0.0))
    "two samples: q=1 is the upper bucket" 100.0
    (Runner.span_quantile_ms p2 1.0);
  (* overflow lands at infinity; out-of-range q raises *)
  let p3 = Runner.span_probe "test_specs.quantile" in
  Obs.Histogram.observe h 100.0;
  Alcotest.(check (float 0.0))
    "overflow bucket: q=1 is infinity" infinity
    (Runner.span_quantile_ms p3 1.0);
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "q=%g raises" q)
        true
        (try
           ignore (Runner.span_quantile_ms p3 q);
           false
         with Invalid_argument _ -> true))
    [ -0.1; 1.5 ]

(* The real thing: a designed network where the solver's span histogram
   is the only timing source. The ms column published by the probe must
   equal 1000 * (sum delta) / (count delta) read independently from the
   histogram, and the sum delta must be an exact integer number of
   ticks. *)
let test_designed_net_ms () =
  E.install_fake_clock ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) @@ fun () ->
  let tick = 1.0 /. 8192.0 in
  let rng = Topology.Rng.create 11 in
  let net = E.network rng ~n:30 in
  let reqs = Workload.Gen.sequence rng net ~count:5 in
  let h = Obs.Histogram.make "appro_multi.solve" in
  let c0 = Obs.Histogram.count h and s0 = Obs.Histogram.sum h in
  let p = Runner.span_probe "appro_multi.solve" in
  List.iter
    (fun r -> ignore (Nfv_multicast.Appro_multi.solve ~k:2 net r))
    reqs;
  let dc = Obs.Histogram.count h - c0 in
  let ds = Obs.Histogram.sum h -. s0 in
  Alcotest.(check int) "one span per solve call" 5 dc;
  Alcotest.(check int) "probe sees the same count" 5 (Runner.span_count p);
  Alcotest.(check (float 0.0))
    "ms column = 1000 * sum / count of the span histogram"
    (1000.0 *. ds /. float_of_int dc)
    (Runner.span_mean_ms p);
  let ticks = ds /. tick in
  Alcotest.(check (float 0.0))
    "span sum is an exact whole number of dyadic ticks" (Float.round ticks)
    ticks

(* ---- golden CSVs ------------------------------------------------------ *)

(* dune runtest executes in _build/default/test (where the deps glob
   copies golden/); dune exec from the repo root sees test/golden *)
let golden_dir =
  lazy
    (List.find_opt Sys.file_exists [ "golden"; "test/golden" ]
    |> function
    | Some d -> d
    | None -> Alcotest.fail "golden directory not found")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden (spec : Spec.t) () =
  List.iter
    (fun f ->
      let path = Filename.concat (Lazy.force golden_dir) (f.E.id ^ ".csv") in
      if not (Sys.file_exists path) then
        Alcotest.failf "missing golden file %s (run golden_gen)" path;
      let want = read_file path in
      let got = E.to_csv f in
      if not (String.equal want got) then
        Alcotest.failf
          "%s: CSV differs from golden %s (regenerate with golden_gen if the \
           change is intentional)"
          spec.Spec.id path)
    (smoke_figures spec)

(* ---- per-scenario obs snapshots --------------------------------------- *)

let test_obs_out () =
  E.install_fake_clock ();
  Experiments.Pool.set_jobs 1;
  let dir = Filename.temp_file "nfvm_obs" "" in
  Sys.remove dir;
  let figs =
    Runner.run ~seed:3 ~requests:16 ~obs_out:dir Experiments.Stress.spec
  in
  Alcotest.(check int) "stress figures produced" 2 (List.length figs);
  let path = Runner.obs_json_path ~dir "stress" in
  if not (Sys.file_exists path) then
    Alcotest.failf "snapshot %s not written" path;
  (* the file is exactly the JSON of the family's snapshot *)
  let snap = Obs.Export.snapshot () in
  if snap = [] then Alcotest.fail "snapshot is empty";
  Alcotest.(check string)
    "snapshot file = to_json (snapshot ()) byte-for-byte"
    (Obs.Export.to_json snap ^ "\n")
    (read_file path);
  (* the family's own counters are in its snapshot *)
  let has_counter name =
    List.exists
      (function Obs.Export.Counter (n, _) -> n = name | _ -> false)
      snap
  in
  if not (has_counter "online_cp.admitted") then
    Alcotest.fail "snapshot lacks online_cp.admitted";
  if not (has_counter "online_cp.rejected.over_threshold") then
    Alcotest.fail "snapshot lacks rejection counters"

let () =
  Alcotest.run "specs"
    [
      ( "registry",
        [
          Alcotest.test_case "ids" `Quick test_registry_ids;
          Alcotest.test_case "declared figures" `Quick test_declared_figures;
          Alcotest.test_case "default-scale layouts" `Quick
            test_default_layouts;
          Alcotest.test_case "assembly smoke" `Quick test_assembly_smoke;
          Alcotest.test_case "grid and cells" `Quick test_grid_cells;
          Alcotest.test_case "repeats refused" `Quick test_repeats_refused;
          Alcotest.test_case "small horizons" `Quick test_small_horizons;
          Alcotest.test_case "stress conservation" `Quick
            test_stress_conservation;
          Alcotest.test_case "matched baselines" `Quick test_matched_baselines;
          Alcotest.test_case "restore per-cell ledger" `Quick
            test_restore_cell_ledger;
        ] );
      ( "timing",
        [
          Alcotest.test_case "span probe exact" `Quick test_span_probe_exact;
          Alcotest.test_case "span quantile edge cases" `Quick
            test_span_quantile_edges;
          Alcotest.test_case "designed-net ms column" `Quick
            test_designed_net_ms;
        ] );
      ( "golden",
        List.map
          (fun (spec : Spec.t) ->
            Alcotest.test_case spec.Spec.id `Quick (test_golden spec))
          Experiments.Registry.all );
      ("obs-out", [ Alcotest.test_case "snapshot" `Quick test_obs_out ]);
    ]
