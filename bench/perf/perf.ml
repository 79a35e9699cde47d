(* Performance benchmark: four committed workloads, end-to-end metrics
   from untraced reps on the monotonic wall clock, per-layer metrics
   from one extra traced rep, and an outcome check against committed
   fingerprints. See README.md for the workloads and every metric.

     perf.exe --all [--seed N] [--reps N] [--scale X] [--out FILE.json]
     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     perf.exe compare [--benchmark FILE] --parent FILE --change FILE ...
     perf.exe smoke [--benchmark FILE]

   --all runs each workload in its own child process. --workload runs
   one in this process and ends with one JSON line: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer ones. *)

module Obs = Nfv_obs.Obs
module W = Workloads
module M = Metrics

(* --- committed fingerprints: "workload seed scale fingerprint" lines --- *)

let expected ~workload ~seed ~scale =
  String.split_on_char '\n' Expected_data.text
  |> List.find_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; s; sc; fp ]
           when w = workload
                && int_of_string_opt s = Some seed
                && float_of_string_opt sc = Some scale ->
           Some fp
         | _ -> None)

(* --- one workload, in this process --- *)

type outcome = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  fingerprint : string;
  status : string;  (** "matched", "mismatched" or "none" committed *)
  e2e : M.t list * M.t list;  (** declared, extras *)
  layers : (M.t list * M.t list) option;
  counters : (string * int) list;
  snapshot : string option;
  problems : string list;
}

let measure (w : W.t) ~seed ~scale ~reps ~seconds ~trace =
  let started = W.tick () in
  let setups = ref [] in
  (* each set-up starts from a collected heap, and so does each rep *)
  let prepare () =
    Gc.full_major ();
    let t0 = W.tick () in
    let run = w.W.prepare ~seed ~scale in
    setups := ((W.tick () -. t0) *. 1e-9) :: !setups;
    Gc.full_major ();
    run
  in
  let first = (prepare ()) () in
  (* the peak of one set-up and one rep in a fresh process: later reps
     would make it depend on how many reps the time allowed *)
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let rec untraced acc =
    if List.length acc < reps || (W.tick () -. started) *. 1e-9 < seconds then
      untraced ((prepare ()) () :: acc)
    else List.rev acc
  in
  let runs = untraced [ first ] in
  let traced =
    if not trace then None
    else begin
      let run = prepare () in
      Obs.clock := (fun () -> W.tick () *. 1e-9);
      Obs.reset_all ();
      Obs.enabled := true;
      let r = Fun.protect ~finally:(fun () -> Obs.enabled := false) run in
      Some (r, Obs.Export.snapshot ())
    end
  in
  let all = runs @ Option.to_list (Option.map fst traced) in
  let committed = expected ~workload:w.W.name ~seed ~scale in
  let reference =
    match committed with Some fp -> fp | None -> W.fingerprint (List.hd all)
  in
  let mismatched = List.filter (fun r -> W.fingerprint r <> reference) all in
  let failed =
    List.fold_left
      (fun n (r : W.rep) ->
        n + if List.memq r mismatched then r.W.ops else r.W.failed)
      0 all
  in
  let problems =
    List.concat_map (fun (r : W.rep) -> r.W.problems) all
    @
    match mismatched with
    | [] -> []
    | r :: _ ->
      [
        Printf.sprintf "fingerprint %s differs from the %s one %s"
          (W.fingerprint r)
          (if committed = None then "first rep's" else "committed")
          reference;
      ]
  in
  let e2e = M.end_to_end ~setups:!setups ~reps:runs ~heap_words in
  let untraced_rate =
    (List.find (fun (m : M.t) -> m.M.name = "ops_per_s") (fst e2e)).M.value
  in
  {
    workload = w.W.name;
    correct = failed = 0 && problems = [];
    attempted = List.fold_left (fun n (r : W.rep) -> n + r.W.ops) 0 all;
    failed;
    fingerprint = reference;
    status =
      (match committed with
      | None -> "none"
      | Some _ when mismatched = [] -> "matched"
      | Some _ -> "mismatched");
    e2e;
    layers =
      Option.map
        (fun (traced, snap) -> M.per_layer ~traced ~snap ~reps:runs ~untraced_rate)
        traced;
    counters = (match traced with Some (_, s) -> M.counters s | None -> []);
    snapshot = Option.map (fun (_, s) -> Obs.Export.to_json s) traced;
    problems;
  }

let metrics_json ?(samples = false) ms =
  Json.Obj
    (List.map
       (fun (m : M.t) ->
         ( m.M.name,
           Json.Obj
             ([ ("value", Json.Num m.M.value); ("unit", Json.Str m.M.unit) ]
             @ if samples then [ ("samples", Json.Num (float_of_int m.M.samples)) ] else [])
         ))
       ms)

(* the full record a child hands to [--all] *)
let record_json o ~seed ~scale =
  let both (d, x) = d @ x in
  Json.Obj
    ([
       ("workload", Json.Str o.workload);
       ("seed", Json.Num (float_of_int seed));
       ("scale", Json.Num scale);
       ("correct", Json.Bool o.correct);
       ("ops_attempted", Json.Num (float_of_int o.attempted));
       ("ops_failed", Json.Num (float_of_int o.failed));
       ("fingerprint", Json.Str o.fingerprint);
       ("expected", Json.Str o.status);
       ("end_to_end", metrics_json ~samples:true (both o.e2e));
       ( "per_layer",
         metrics_json (match o.layers with Some l -> both l | None -> []) );
       ( "counters",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) o.counters) );
       ("problems", Json.List (List.map (fun p -> Json.Str p) o.problems));
     ]
    @ match o.snapshot with Some s -> [ ("obs", Json.of_string s) ] | None -> [])

let print_lines o =
  let line (m : M.t) =
    Printf.printf "%s %s %.6g %s\n" o.workload m.M.name m.M.value m.M.unit
  in
  let d, x = o.e2e in
  List.iter line (d @ x);
  Option.iter (fun (d, x) -> List.iter line (d @ x)) o.layers;
  Printf.printf "%s ops_attempted %d count\n%s ops_failed %d count\n" o.workload
    o.attempted o.workload o.failed;
  Printf.printf "%s fingerprint %s (committed: %s)\n" o.workload o.fingerprint
    o.status;
  List.iter (fun p -> Printf.eprintf "%s: %s\n" o.workload p) o.problems

let run_one ~name ~seed ~scale ~reps ~seconds ~trace ~record =
  let w =
    match List.find_opt (fun (w : W.t) -> w.W.name = name) W.all with
    | Some w -> w
    | None ->
      failwith
        (Printf.sprintf "unknown workload %S (try: %s)" name
           (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all)))
  in
  let o = measure w ~seed ~scale ~reps ~seconds ~trace in
  print_lines o;
  let last =
    if record then record_json o ~seed ~scale
    else
      Json.Obj
        [
          ("correct", Json.Bool o.correct);
          ("attempted", Json.Num (float_of_int o.attempted));
          ("failed", Json.Num (float_of_int o.failed));
          ( "metrics",
            metrics_json
              (match o.layers with Some (d, _) -> d | None -> fst o.e2e) );
        ]
  in
  print_endline (Json.to_string last)

(* --- every workload, each in a child process --- *)

let spawn args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, out)

let run_all ~seed ~scale ~reps ~echo =
  List.map
    (fun (w : W.t) ->
      let status, out =
        spawn
          [
            "--workload"; w.W.name; "--seed"; string_of_int seed;
            "--scale"; Printf.sprintf "%.17g" scale; "--reps"; string_of_int reps;
            "--trace"; "1"; "--record";
          ]
      in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
      in
      match (status, List.rev lines) with
      | Unix.WEXITED 0, record :: rest ->
        if echo then List.iter print_endline (List.rev rest);
        (w.W.name, Json.of_string record)
      | _ -> failwith (Printf.sprintf "workload %s: child process failed" w.W.name))
    W.all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s; output_char oc '\n')

(* [FILE.json] gets every record without its raw snapshot; each snapshot
   goes beside it as [FILE.<workload>.obs.json] *)
let write_results path ~seed ~scale ~reps records =
  let strip r = Json.Obj (List.filter (fun (k, _) -> k <> "obs") (Json.to_obj r)) in
  write_file path
    (Json.to_string
       (Json.Obj
          [
            ("seed", Json.Num (float_of_int seed));
            ("scale", Json.Num scale);
            ("reps", Json.Num (float_of_int reps));
            ("workloads", Json.Obj (List.map (fun (n, r) -> (n, strip r)) records));
          ]));
  List.iter
    (fun (name, r) ->
      Option.iter
        (fun o ->
          write_file
            (Printf.sprintf "%s.%s.obs.json" (Filename.remove_extension path) name)
            (Json.to_string o))
        (Json.member "obs" r))
    records

let healthy r =
  Json.(member_exn "correct" r = Bool true && to_float (member_exn "ops_failed" r) = 0.0)

(* --- the dune runtest smoke check --- *)

let smoke ~benchmark =
  let bench = Json.read_file benchmark in
  let declared section =
    List.map
      (fun m -> Json.(to_str (member_exn "name" m), to_str (member_exn "unit" m)))
      Json.(to_list (member_exn section bench))
  in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let names = List.map (fun w -> Json.(to_str (member_exn "name" w))) Json.(to_list (member_exn "workloads" bench)) in
  if names <> List.map (fun (w : W.t) -> w.W.name) W.all then
    fail "BENCHMARK.json workloads differ from the benchmark's";
  let a = run_all ~seed:1 ~scale:0.02 ~reps:1 ~echo:false in
  let b = run_all ~seed:1 ~scale:0.02 ~reps:1 ~echo:false in
  List.iter2
    (fun (w, ra) (_, rb) ->
      let get k r = Json.member_exn k r in
      if not (healthy ra && healthy rb) then fail "%s: failed ops or checks" w;
      if get "expected" ra <> Json.Str "matched" then
        fail "%s: fingerprint %s does not match the committed smoke fingerprint" w
          (Json.to_str (get "fingerprint" ra));
      if get "fingerprint" ra <> get "fingerprint" rb then fail "%s: fingerprints differ across runs" w;
      if get "counters" ra <> get "counters" rb then fail "%s: counters differ across runs" w;
      List.iter
        (fun (section, key) ->
          List.iter
            (fun (name, unit) ->
              match Json.member name (get key ra) with
              | None -> fail "%s: %s metric %s missing" w section name
              | Some m ->
                if Json.(member_exn "unit" m) <> Json.Str unit then
                  fail "%s: %s has unit %s, declared %s" w name
                    (Json.to_str (Json.member_exn "unit" m)) unit;
                if not (Float.is_finite (Json.to_float (Json.member_exn "value" m))) then
                  fail "%s: %s is not finite" w name)
            (declared section))
        [ ("end_to_end", "end_to_end"); ("per_layer", "per_layer") ])
    a b;
  match List.rev !errors with
  | [] -> print_endline "perf smoke: ok"
  | es ->
    List.iter prerr_endline es;
    exit 1

(* --- command line --- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let seed = ref 1 and reps = ref 3 and scale = ref 1.0 and seconds = ref 0.0 in
  let trace = ref 0 and record = ref false and all = ref false in
  let workload = ref None and out = ref None and benchmark = ref "BENCHMARK.json" in
  let parents = ref [] and changes = ref [] in
  let specs =
    [
      ("--all", Arg.Set all, " run every workload, each in a child process");
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME  run one workload here");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--reps", Arg.Set_int reps, "N  untraced reps, at least (default 3)");
      ("--scale", Arg.Set_float scale, "X  scale every workload size (default 1.0)");
      ("--seconds", Arg.Set_float seconds, "S  keep adding untraced reps until S seconds have passed");
      ("--trace", Arg.Set_int trace, "0|1  also run one traced rep and report per-layer metrics");
      ("--record", Arg.Set record, " end with the full record instead of the metrics line");
      ("--out", Arg.String (fun s -> out := Some s), "FILE  with --all, write the results as JSON");
      ("--benchmark", Arg.Set_string benchmark, "FILE  BENCHMARK.json to read (compare, smoke)");
      ("--parent", Arg.String (fun s -> parents := s :: !parents), "FILE  parent result (compare)");
      ("--change", Arg.String (fun s -> changes := s :: !changes), "FILE  change result (compare)");
    ]
  in
  let command, rest =
    match args with
    | ("compare" | "smoke") as c :: rest -> (c, rest)
    | _ -> ("run", args)
  in
  let usage = "perf.exe [compare|smoke] [options]" in
  (try
     Arg.parse_argv ~current:(ref 0) (Array.of_list ("perf.exe" :: rest)) specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Help msg ->
    print_string msg;
    exit 0
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2);
  try
    match (command, !workload) with
    | "compare", _ ->
      Compare.run ~benchmark:!benchmark ~parents:(List.rev !parents)
        ~changes:(List.rev !changes)
    | "smoke", _ -> smoke ~benchmark:!benchmark
    | _, Some name ->
      run_one ~name ~seed:!seed ~scale:!scale ~reps:!reps ~seconds:!seconds
        ~trace:(!trace <> 0) ~record:!record
    | _, None when !all ->
      let records = run_all ~seed:!seed ~scale:!scale ~reps:!reps ~echo:true in
      Option.iter (fun p -> write_results p ~seed:!seed ~scale:!scale ~reps:!reps records) !out;
      if not (List.for_all (fun (_, r) -> healthy r) records) then exit 1
    | _ ->
      prerr_endline "perf.exe: give --all or --workload NAME (see --help)";
      exit 2
  with Failure msg | Sys_error msg ->
    prerr_endline ("perf.exe: " ^ msg);
    exit 2
