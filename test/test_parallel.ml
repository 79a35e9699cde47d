(* The parallel figure harness's contract, checked for every family in
   the registry at its smoke scale: running it with N worker domains
   produces the same bytes and the same telemetry as running it
   sequentially, and that telemetry satisfies the family's declared
   ledger identities.

   Each family is rendered (tables + CSVs) under jobs = 1 and jobs = 4
   with the same seed. The fake clock replaces [Sys.time] so timing
   columns and histogram sums are a deterministic function of the work
   done (whole multiples of a dyadic tick), not of scheduling; every
   instrument merges by summing, so whole snapshots must agree. *)

module E = Experiments.Exp_common
module Pool = Experiments.Pool
module Spec = Experiments.Spec
module Obs = Nfv_obs.Obs

let () = E.install_fake_clock ()

let smoke_seed = 3

(* render every figure of a family into one string: the tables exactly as
   the CLI prints them, then each figure's CSV *)
let render_family figs =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  E.render_all ppf figs;
  Format.pp_print_flush ppf ();
  List.iter (fun f -> Buffer.add_string buf (E.to_csv f)) figs;
  Buffer.contents buf

let with_jobs n f =
  let old = Pool.get_jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs old) f

(* one smoke run: its rendering and exactly its own telemetry *)
let smoke_run (spec : Spec.t) jobs =
  with_jobs jobs @@ fun () ->
  Obs.reset_all ();
  let figs =
    Experiments.Runner.figures ~seed:smoke_seed (spec.Spec.smoke ~seed:smoke_seed)
  in
  (render_family figs, Obs.Export.snapshot ())

let sequential =
  List.map (fun (s : Spec.t) -> (s.Spec.id, lazy (smoke_run s 1)))
    Experiments.Registry.all

let test_family_identical (spec : Spec.t) () =
  let seq_bytes, seq_snap = Lazy.force (List.assoc spec.Spec.id sequential) in
  let par_bytes, par_snap = smoke_run spec 4 in
  Alcotest.(check string) (spec.Spec.id ^ " bytes jobs=1 vs jobs=4") seq_bytes
    par_bytes;
  Alcotest.(check bool) "telemetry non-empty" true (seq_snap <> []);
  Alcotest.(check string)
    (spec.Spec.id ^ " telemetry jobs=1 vs jobs=4")
    (Obs.Export.to_json seq_snap) (Obs.Export.to_json par_snap)

(* integer skeleton of a snapshot, taken with telemetry switched on
   explicitly: counter values and histogram counts/buckets are
   scheduling-independent whatever the clock *)
let int_skeleton snap =
  List.map
    (function
      | Obs.Export.Counter (name, v) -> Printf.sprintf "c:%s=%d" name v
      | Obs.Export.Histogram { name; count; buckets; _ } ->
        Printf.sprintf "h:%s=%d[%s]" name count
          (String.concat ";" (Array.to_list (Array.map string_of_int buckets))))
    snap

let test_telemetry_identical () =
  let capture jobs =
    with_jobs jobs (fun () ->
        Obs.reset_all ();
        let was = !Obs.enabled in
        Obs.enabled := true;
        Fun.protect
          ~finally:(fun () -> Obs.enabled := was)
          (fun () ->
            ignore
              (Experiments.Runner.figures ~seed:3
                 (Experiments.Fig5.spec.Spec.smoke ~seed:3));
            int_skeleton (Obs.Export.snapshot ())))
  in
  let seq = capture 1 and par = capture 4 in
  Alcotest.(check (list string)) "integer telemetry jobs=1 vs jobs=4" seq par;
  Alcotest.(check bool) "telemetry non-empty" true (seq <> [])

let read snap name =
  Option.value ~default:0
    (List.find_map
       (function Obs.Export.Counter (n, v) when n = name -> Some v | _ -> None)
       snap)

let test_ledgers (spec : Spec.t) () =
  let _, snap = Lazy.force (List.assoc spec.Spec.id sequential) in
  List.iter
    (fun (l : Spec.ledger) ->
      let total = read snap l.Spec.total in
      if total <= 0 then
        Alcotest.failf "%s: %s never fired at smoke scale" spec.Spec.id
          l.Spec.total;
      Alcotest.(check int)
        (Printf.sprintf "%s: %s = %s" spec.Spec.id l.Spec.total
           (String.concat " + " l.Spec.parts))
        total
        (List.fold_left (fun acc p -> acc + read snap p) 0 l.Spec.parts))
    spec.Spec.ledgers

(* --- Sharding unit tests (raw Domain.spawn, no pool) --- *)

let test_merge_counters () =
  Obs.reset_all ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) @@ fun () ->
  let c = Obs.Counter.make "tpar.counter" in
  Obs.Counter.add c 5;
  let shard =
    Domain.join
      (Domain.spawn (fun () ->
           let c' = Obs.Counter.make "tpar.counter" in
           Obs.Counter.add c' 7;
           (* the worker sees only its own contribution... *)
           Alcotest.(check int) "worker-local view" 7 (Obs.Counter.value c');
           Obs.Sharding.take ()))
  in
  (* ...and the global registry is untouched until the merge *)
  Alcotest.(check int) "pre-merge global" 5 (Obs.Counter.value c);
  Obs.Sharding.merge shard;
  Alcotest.(check int) "post-merge sum" 12 (Obs.Counter.value c)

let test_merge_histograms () =
  Obs.reset_all ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) @@ fun () ->
  let h = Obs.Histogram.make "tpar.hist" in
  Obs.Histogram.observe h 0.5e-6;
  Obs.Histogram.observe h 0.5e-4;
  let shard =
    Domain.join
      (Domain.spawn (fun () ->
           let h' = Obs.Histogram.make "tpar.hist" in
           Obs.Histogram.observe h' 0.5e-6;
           Obs.Histogram.observe h' 100.0;
           Obs.Sharding.take ()))
  in
  Obs.Sharding.merge shard;
  Alcotest.(check int) "count sums" 4 (Obs.Histogram.count h);
  Alcotest.(check (array int)) "buckets add bucket-wise"
    [| 2; 0; 1; 0; 0; 0; 0; 0; 1 |]
    (Obs.Histogram.buckets h)

let test_merge_worker_created () =
  (* an instrument first seen inside a worker appears in the global
     registry after the merge — Span.run creates histograms dynamically,
     so this is the path every instrumented span in a worker takes *)
  Obs.reset_all ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) @@ fun () ->
  let name = "tpar.worker_only" in
  let shard =
    Domain.join
      (Domain.spawn (fun () ->
           Obs.Counter.add (Obs.Counter.make name) 3;
           Obs.Sharding.take ()))
  in
  Obs.Sharding.merge shard;
  Alcotest.(check int) "registered at merge" 3
    (Obs.Counter.value (Obs.Counter.make name))

(* a worker's [make] registers the name in its own store, so the merge
   registers it exactly as a main-domain [make] would, even when nothing
   was recorded (a probe on a span that never ran); a worker's read
   registers nothing *)
let test_merge_worker_made () =
  Obs.reset_all ();
  let main_made = Obs.Counter.make "tpar.main_made" in
  let name = "tpar.worker_made" in
  let worker_names, shard =
    Domain.join
      (Domain.spawn (fun () ->
           ignore (Obs.Histogram.make name);
           Alcotest.(check int) "worker read" 0 (Obs.Counter.value main_made);
           let names =
             List.map
               (function
                 | Obs.Export.Counter (n, _)
                 | Obs.Export.Histogram { name = n; _ } -> n)
               (Obs.Export.snapshot ())
           in
           (names, Obs.Sharding.take ())))
  in
  Alcotest.(check (list string)) "the worker's store" [ name ] worker_names;
  Obs.Sharding.merge shard;
  Alcotest.(check bool) "registered at merge" true
    (List.exists
       (function
         | Obs.Export.Histogram { name = n; count = 0; _ } -> n = name
         | _ -> false)
       (Obs.Export.snapshot ()))

let test_disabled_noop () =
  Obs.reset_all ();
  Alcotest.(check bool) "recording off" false !Obs.enabled;
  let c = Obs.Counter.make "tpar.disabled" in
  Obs.Counter.add c 5;
  let shard =
    Domain.join
      (Domain.spawn (fun () ->
           Obs.Counter.add (Obs.Counter.make "tpar.disabled") 7;
           Obs.Sharding.take ()))
  in
  Obs.Sharding.merge shard;
  Alcotest.(check int) "nothing recorded anywhere" 0 (Obs.Counter.value c)

(* --- per-domain kernel scratch --- *)

(* Dijkstra's heap and settled marks are per-domain scratch: two domains
   searching at once, over graphs of alternating sizes and in opposite
   orders, each get the trees a sequential run gets. *)
let test_dijkstra_two_domains () =
  let instances =
    List.init 40 (fun seed ->
        let lo, hi = List.nth Tutil.size_ladder (seed mod 4) in
        let g, rng = Tutil.random_connected_graph (2000 + seed) ~lo ~hi in
        let weights = Tutil.tied_weights rng g in
        (g, weights, Topology.Rng.int rng (Mcgraph.Graph.n g)))
  in
  let run_all order =
    List.map
      (fun (g, weights, source) -> Mcgraph.Paths.dijkstra_vec g ~weights ~source)
      order
  in
  let sequential = run_all instances in
  let same = List.for_all2 Tutil.same_spt sequential in
  for _ = 1 to 5 do
    let other = Domain.spawn (fun () -> List.rev (run_all (List.rev instances))) in
    let here = run_all instances in
    let there = Domain.join other in
    if not (same here && same there) then
      Alcotest.fail "dijkstra differs across domains"
  done

(* --- pool mechanics --- *)

let test_point_seed_distinct () =
  (* different figures/indices/seeds give different streams; same triple
     gives the same stream *)
  let s1 = Pool.point_seed ~figure:"fig5" ~index:0 ~seed:1 in
  let s2 = Pool.point_seed ~figure:"fig5" ~index:1 ~seed:1 in
  let s3 = Pool.point_seed ~figure:"fig6" ~index:0 ~seed:1 in
  let s4 = Pool.point_seed ~figure:"fig5" ~index:0 ~seed:2 in
  Alcotest.(check bool) "index matters" true (s1 <> s2);
  Alcotest.(check bool) "figure matters" true (s1 <> s3);
  Alcotest.(check bool) "seed matters" true (s1 <> s4);
  Alcotest.(check int) "deterministic" s1
    (Pool.point_seed ~figure:"fig5" ~index:0 ~seed:1);
  Alcotest.(check bool) "non-negative" true (s1 >= 0)

let test_map_order_and_exceptions () =
  with_jobs 4 @@ fun () ->
  let r = Pool.map ~figure:"tpar" ~seed:1 7 (fun ~rng:_ i -> i * i) in
  Alcotest.(check (list int)) "results in point order" [ 0; 1; 4; 9; 16; 25; 36 ] r;
  Alcotest.(check int) "empty map" 0 (List.length (Pool.map ~figure:"tpar" ~seed:1 0 (fun ~rng:_ i -> i)));
  match
    Pool.map ~figure:"tpar" ~seed:1 5 (fun ~rng:_ i ->
        if i = 3 then failwith "boom" else i)
  with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

let test_set_jobs_validation () =
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Pool.set_jobs: negative job count") (fun () ->
      Pool.set_jobs (-1));
  Alcotest.(check bool) "auto >= 1" true (Pool.default_jobs () >= 1)

let () =
  Alcotest.run "parallel"
    [
      ( "byte-identity",
        List.map
          (fun (spec : Spec.t) ->
            Alcotest.test_case spec.Spec.id `Slow (test_family_identical spec))
          Experiments.Registry.all );
      ( "telemetry",
        [
          Alcotest.test_case "integer telemetry identical" `Slow
            test_telemetry_identical;
        ] );
      ( "ledger",
        List.filter_map
          (fun (spec : Spec.t) ->
            if spec.Spec.ledgers = [] then None
            else
              Some
                (Alcotest.test_case spec.Spec.id `Quick (test_ledgers spec)))
          Experiments.Registry.all );
      ( "sharding",
        [
          Alcotest.test_case "counters sum" `Quick test_merge_counters;
          Alcotest.test_case "histograms add" `Quick test_merge_histograms;
          Alcotest.test_case "worker-created instrument" `Quick
            test_merge_worker_created;
          Alcotest.test_case "worker make registers, reads do not" `Quick
            test_merge_worker_made;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "dijkstra on two domains" `Quick
            test_dijkstra_two_domains;
        ] );
      ( "pool",
        [
          Alcotest.test_case "point seeds" `Quick test_point_seed_distinct;
          Alcotest.test_case "map order and exceptions" `Quick
            test_map_order_and_exceptions;
          Alcotest.test_case "set_jobs validation" `Quick
            test_set_jobs_validation;
        ] );
    ]
