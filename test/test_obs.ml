(* Nfv_obs: instrument arithmetic, the disabled-mode no-op guarantee
   the figure reproductions rely on, and exact export round-trips. All
   instruments are process-global, so every test starts from
   [reset_all] and restores [enabled := false] on exit. *)

module Obs = Nfv_obs.Obs

let with_enabled f =
  Obs.reset_all ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

(* --- counters, gauges, timers ------------------------------------------ *)

let test_counter_arithmetic () =
  with_enabled @@ fun () ->
  let c = Obs.Counter.make "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.incr c;
  Obs.Counter.add c 40;
  Alcotest.(check int) "2 incr + add 40" 42 (Obs.Counter.value c);
  Alcotest.(check string) "name" "test.counter" (Obs.Counter.name c)

let test_counter_idempotent_make () =
  with_enabled @@ fun () ->
  let a = Obs.Counter.make "test.shared" in
  let b = Obs.Counter.make "test.shared" in
  Obs.Counter.incr a;
  Alcotest.(check int) "same instrument via both handles" 1
    (Obs.Counter.value b)

let test_bad_name_rejected () =
  Alcotest.check_raises "space in name"
    (Invalid_argument "Obs: invalid instrument name: bad name")
    (fun () -> ignore (Obs.Counter.make "bad name"))

let test_gauge_last_write_wins () =
  with_enabled @@ fun () ->
  let g = Obs.Gauge.make "test.gauge" in
  Alcotest.(check (float 0.0)) "default" 0.0 (Obs.Gauge.value g);
  Obs.Gauge.set g 1.5;
  Obs.Gauge.set g 0.25;
  Alcotest.(check (float 0.0)) "last write wins" 0.25 (Obs.Gauge.value g)

let test_timer_with_fake_clock () =
  with_enabled @@ fun () ->
  let t = Obs.Timer.make "test.timer" in
  let now = ref 0.0 in
  let saved = !Obs.clock in
  Obs.clock := (fun () -> !now);
  Fun.protect ~finally:(fun () -> Obs.clock := saved) @@ fun () ->
  let r = Obs.Timer.time t (fun () -> now := !now +. 2.0; "done") in
  Alcotest.(check string) "result threaded through" "done" r;
  Obs.Timer.add t 0.5;
  Alcotest.(check int) "two observations" 2 (Obs.Timer.count t);
  Alcotest.(check (float 1e-9)) "total = 2.0 + 0.5" 2.5 (Obs.Timer.total t);
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Obs.Timer.add: negative duration") (fun () ->
      Obs.Timer.add t (-1.0))

(* --- histograms -------------------------------------------------------- *)

let test_histogram_bucketing () =
  with_enabled @@ fun () ->
  let h = Obs.Histogram.make ~bounds:[| 1.0; 10.0; 100.0 |] "test.hist" in
  (* one per bucket: <=1, <=10, <=100, overflow; boundary goes low *)
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.0; 10.0; 99.0; 1000.0 ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 1110.5 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 222.1 (Obs.Histogram.mean h);
  Alcotest.(check (array (float 0.0))) "bounds preserved"
    [| 1.0; 10.0; 100.0 |]
    (Obs.Histogram.bounds h);
  Alcotest.(check (array int)) "buckets: boundary lands low, tail overflows"
    [| 2; 1; 1; 1 |]
    (Obs.Histogram.buckets h)

let test_histogram_quantile () =
  with_enabled @@ fun () ->
  let h = Obs.Histogram.make ~bounds:[| 1.0; 2.0; 4.0 |] "test.hist.q" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Obs.Histogram.quantile h 0.5);
  for _ = 1 to 90 do Obs.Histogram.observe h 0.5 done;
  for _ = 1 to 9 do Obs.Histogram.observe h 1.5 done;
  Obs.Histogram.observe h 100.0;
  Alcotest.(check (float 0.0)) "p50 in first bucket" 1.0
    (Obs.Histogram.quantile h 0.5);
  Alcotest.(check (float 0.0)) "p95 in second bucket" 2.0
    (Obs.Histogram.quantile h 0.95);
  Alcotest.(check (float 0.0)) "p100 overflows" infinity
    (Obs.Histogram.quantile h 1.0)

(* the one bucket-quantile rule: an empty bucket never carries the
   quantile, so q = 0 is the first non-empty bucket, not bounds.(0) *)
let test_bucket_quantile_edges () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  let check name buckets expected =
    List.iter2
      (fun q want ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s: q=%g" name q)
          want
          (Obs.Histogram.bucket_quantile ~bounds buckets q))
      [ 0.0; 0.5; 1.0 ] expected
  in
  check "empty" [| 0; 0; 0; 0 |] [ 0.0; 0.0; 0.0 ];
  check "leading-empty" [| 0; 0; 3; 1 |] [ 4.0; 4.0; infinity ];
  check "single-sample" [| 0; 1; 0; 0 |] [ 2.0; 2.0; 2.0 ];
  check "overflow-only" [| 0; 0; 0; 2 |] [ infinity; infinity; infinity ];
  (* the histogram's own quantile follows the same rule *)
  with_enabled @@ fun () ->
  let h = Obs.Histogram.make ~bounds "test.hist.q0" in
  Obs.Histogram.observe h 3.0;
  Alcotest.(check (float 0.0)) "histogram q=0 skips empty buckets" 4.0
    (Obs.Histogram.quantile h 0.0)

let test_histogram_bad_bounds () =
  Alcotest.check_raises "non-increasing bounds"
    (Invalid_argument "Obs.Histogram.make: bounds not strictly increasing")
    (fun () ->
      ignore (Obs.Histogram.make ~bounds:[| 2.0; 1.0 |] "test.hist.bad"))

(* --- spans ------------------------------------------------------------- *)

let test_span_nesting () =
  with_enabled @@ fun () ->
  let now = ref 0.0 in
  let saved = !Obs.clock in
  Obs.clock := (fun () -> !now);
  Fun.protect ~finally:(fun () -> Obs.clock := saved) @@ fun () ->
  Alcotest.(check (option string)) "no open span" None (Obs.Span.current ());
  Obs.Span.run "outer" (fun () ->
      Alcotest.(check (option string)) "outer open" (Some "outer")
        (Obs.Span.current ());
      now := !now +. 1.0;
      Obs.Span.run "inner" (fun () ->
          Alcotest.(check (option string)) "paths join with /"
            (Some "outer/inner") (Obs.Span.current ());
          now := !now +. 2.0));
  Alcotest.(check (option string)) "popped" None (Obs.Span.current ());
  (* outer span: 3 s total; inner: 2 s — each into its own histogram *)
  let outer = Obs.Histogram.make "outer" in
  let inner = Obs.Histogram.make "outer/inner" in
  Alcotest.(check int) "outer recorded once" 1 (Obs.Histogram.count outer);
  Alcotest.(check (float 1e-9)) "outer duration" 3.0 (Obs.Histogram.sum outer);
  Alcotest.(check (float 1e-9)) "inner duration" 2.0 (Obs.Histogram.sum inner)

let test_span_pops_on_raise () =
  with_enabled @@ fun () ->
  (try Obs.Span.run "raises" (fun () -> failwith "boom") with
  | Failure _ -> ());
  Alcotest.(check (option string)) "span popped after raise" None
    (Obs.Span.current ());
  Alcotest.(check int) "duration still recorded" 1
    (Obs.Histogram.count (Obs.Histogram.make "raises"))

(* --- disabled mode is a no-op ------------------------------------------ *)

let test_disabled_is_noop () =
  Obs.reset_all ();
  Obs.enabled := false;
  let c = Obs.Counter.make "test.off.counter" in
  let g = Obs.Gauge.make "test.off.gauge" in
  let t = Obs.Timer.make "test.off.timer" in
  let h = Obs.Histogram.make "test.off.hist" in
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Obs.Gauge.set g 3.0;
  Obs.Timer.add t 1.0;
  let r = Obs.Timer.time t (fun () -> 17) in
  Obs.Histogram.observe h 0.5;
  Obs.Span.run "test.off.span" (fun () ->
      Alcotest.(check (option string)) "spans not tracked when disabled" None
        (Obs.Span.current ()));
  Alcotest.(check int) "time still runs f" 17 r;
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0 (Obs.Gauge.value g);
  Alcotest.(check int) "timer untouched" 0 (Obs.Timer.count t);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Histogram.count h)

let test_reset_all () =
  with_enabled @@ fun () ->
  let c = Obs.Counter.make "test.reset.counter" in
  let h = Obs.Histogram.make "test.reset.hist" in
  Obs.Counter.add c 5;
  Obs.Histogram.observe h 0.5;
  Obs.reset_all ();
  Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Obs.Histogram.count h);
  Alcotest.(check (array int)) "buckets zeroed"
    (Array.make (Array.length (Obs.Histogram.bounds h) + 1) 0)
    (Obs.Histogram.buckets h)

(* --- export round-trips ------------------------------------------------ *)

(* A snapshot with every metric kind and awkward floats (negative,
   subnormal-ish, many digits) to exercise round-trip precision. *)
let populate () =
  with_enabled @@ fun () ->
  Obs.Counter.add (Obs.Counter.make "rt.counter") 12345;
  Obs.Gauge.set (Obs.Gauge.make "rt.gauge") 0.30000000000000004;
  let t = Obs.Timer.make "rt.timer" in
  Obs.Timer.add t 0.1;
  Obs.Timer.add t 0.2;
  let h = Obs.Histogram.make ~bounds:[| 1e-6; 0.125; 3.0 |] "rt.hist" in
  Obs.Histogram.observe h 1e-7;
  Obs.Histogram.observe h 0.1;
  Obs.Histogram.observe h 7.5;
  Obs.Export.snapshot ()

let check_roundtrip which encode decode =
  let snap = populate () in
  let back = decode (encode snap) in
  if back <> snap then
    Alcotest.failf "%s round-trip changed the snapshot" which

let test_csv_roundtrip () =
  check_roundtrip "CSV" Obs.Export.to_csv Obs.Export.of_csv

let test_json_roundtrip () =
  check_roundtrip "JSON" Obs.Export.to_json Obs.Export.of_json

let test_csv_shape () =
  Obs.reset_all ();
  let rows = String.split_on_char '\n' (Obs.Export.to_csv (populate ())) in
  let find prefix =
    match List.find_opt (fun r -> String.length r >= String.length prefix
                                  && String.sub r 0 (String.length prefix) = prefix) rows with
    | Some r -> r
    | None -> Alcotest.failf "no row starting with %s" prefix
  in
  Alcotest.(check string) "counter row" "counter,rt.counter,12345"
    (find "counter,rt.counter");
  Alcotest.(check string) "timer row"
    (Printf.sprintf "timer,rt.timer,2,%.17g" 0.30000000000000004)
    (find "timer,rt.timer")

let test_of_csv_rejects_garbage () =
  match Obs.Export.of_csv "nonsense,row" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "of_csv accepted a malformed row"

let test_of_json_rejects_garbage () =
  match Obs.Export.of_json "{\"counters\":" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "of_json accepted truncated input"

let () =
  Alcotest.run "obs"
    [
      ( "scalars",
        [
          Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
          Alcotest.test_case "make is idempotent" `Quick
            test_counter_idempotent_make;
          Alcotest.test_case "bad names rejected" `Quick test_bad_name_rejected;
          Alcotest.test_case "gauge last-write-wins" `Quick
            test_gauge_last_write_wins;
          Alcotest.test_case "timer with fake clock" `Quick
            test_timer_with_fake_clock;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantile;
          Alcotest.test_case "bucket quantile edges" `Quick
            test_bucket_quantile_edges;
          Alcotest.test_case "bad bounds rejected" `Quick
            test_histogram_bad_bounds;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and durations" `Quick test_span_nesting;
          Alcotest.test_case "pops on raise" `Quick test_span_pops_on_raise;
        ] );
      ( "switch",
        [
          Alcotest.test_case "disabled mode is a no-op" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "reset_all zeroes" `Quick test_reset_all;
        ] );
      ( "export",
        [
          Alcotest.test_case "CSV round-trip" `Quick test_csv_roundtrip;
          Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "CSV row shape" `Quick test_csv_shape;
          Alcotest.test_case "of_csv rejects garbage" `Quick
            test_of_csv_rejects_garbage;
          Alcotest.test_case "of_json rejects garbage" `Quick
            test_of_json_rejects_garbage;
        ] );
    ]
