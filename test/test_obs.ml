(* Nfv_obs: instrument arithmetic, the disabled-mode no-op guarantee
   the figure reproductions rely on, and the JSON export's shape. All
   instruments are process-global, so every test starts from
   [reset_all] and restores [enabled := false] on exit. *)

module Obs = Nfv_obs.Obs

let with_enabled f =
  Obs.reset_all ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

(* --- counters ------------------------------------------------------------ *)

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

(* --- histograms -------------------------------------------------------- *)

(* every histogram buckets on [default_bounds]: 1e-6 ... 1e-1, 1, 10 *)
let test_histogram_bucketing () =
  with_enabled @@ fun () ->
  let h = Obs.Histogram.make "test.hist" in
  (* boundaries go low, the tail overflows *)
  List.iter (Obs.Histogram.observe h) [ 0.5e-6; 1e-6; 1e-2; 0.5; 1000.0 ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 1000.5100015 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 200.1020003 (Obs.Histogram.mean h);
  Alcotest.(check (array (float 0.0))) "one bucket layout"
    [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]
    Obs.Histogram.default_bounds;
  Alcotest.(check (array int)) "buckets: boundary lands low, tail overflows"
    [| 2; 0; 0; 0; 1; 0; 1; 0; 1 |]
    (Obs.Histogram.buckets h)

let test_histogram_quantile () =
  with_enabled @@ fun () ->
  let h = Obs.Histogram.make "test.hist.q" in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Obs.Histogram.quantile h 0.5);
  for _ = 1 to 90 do Obs.Histogram.observe h 0.5e-3 done;
  for _ = 1 to 9 do Obs.Histogram.observe h 0.5e-2 done;
  Obs.Histogram.observe h 100.0;
  Alcotest.(check (float 0.0)) "p50 in the 1e-3 bucket" 1e-3
    (Obs.Histogram.quantile h 0.5);
  Alcotest.(check (float 0.0)) "p95 in the 1e-2 bucket" 1e-2
    (Obs.Histogram.quantile h 0.95);
  Alcotest.(check (float 0.0)) "p100 overflows" infinity
    (Obs.Histogram.quantile h 1.0)

(* the one bucket-quantile rule: an empty bucket never carries the
   quantile, so q = 0 is the first non-empty bucket, not bounds.(0) *)
let test_bucket_quantile_edges () =
  (* buckets: <=1e-6, <=1e-5, <=1e-4, <=1e-3, ..., <=10, overflow *)
  let check name buckets expected =
    List.iter2
      (fun q want ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s: q=%g" name q)
          want
          (Obs.Histogram.bucket_quantile buckets q))
      [ 0.0; 0.5; 1.0 ] expected
  in
  check "empty" [| 0; 0; 0; 0; 0; 0; 0; 0; 0 |] [ 0.0; 0.0; 0.0 ];
  check "leading-empty" [| 0; 0; 3; 0; 0; 0; 0; 0; 1 |] [ 1e-4; 1e-4; infinity ];
  check "single-sample" [| 0; 1; 0; 0; 0; 0; 0; 0; 0 |] [ 1e-5; 1e-5; 1e-5 ];
  check "overflow-only" [| 0; 0; 0; 0; 0; 0; 0; 0; 2 |]
    [ infinity; infinity; infinity ];
  (* the histogram's own quantile follows the same rule *)
  with_enabled @@ fun () ->
  let h = Obs.Histogram.make "test.hist.q0" in
  Obs.Histogram.observe h 3e-4;
  Alcotest.(check (float 0.0)) "histogram q=0 skips empty buckets" 1e-3
    (Obs.Histogram.quantile h 0.0)

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
  let h = Obs.Histogram.make "test.off.hist" in
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Obs.Histogram.observe h 0.5;
  let r =
    Obs.Span.run "test.off.span" (fun () ->
        Alcotest.(check (option string)) "spans not tracked when disabled" None
          (Obs.Span.current ());
        17)
  in
  Alcotest.(check int) "span still runs f" 17 r;
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Histogram.count h);
  Alcotest.(check int) "span histogram untouched" 0
    (Obs.Histogram.count (Obs.Histogram.make "test.off.span"))

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
    (Array.make (Array.length Obs.Histogram.default_bounds + 1) 0)
    (Obs.Histogram.buckets h)

(* --- export -------------------------------------------------------------- *)

(* the one file format, pinned on a hand-built snapshot: counters, then
   histograms with the shared bounds, floats at round-trip precision *)
let test_json_shape () =
  let snap =
    Obs.Export.
      [
        Counter ("a.count", 12345);
        Histogram
          { name = "a.span"; count = 2; sum = 0.30000000000000004;
            buckets = [| 1; 0; 0; 0; 0; 1; 0; 0; 0 |] };
      ]
  in
  Alcotest.(check string) "to_json"
    ({|{"counters":{"a.count":12345},"histograms":{"a.span":{"count":2,|}
    ^ {|"sum":0.30000000000000004,"bounds":[9.9999999999999995e-07,|}
    ^ {|1.0000000000000001e-05,0.0001,0.001,0.01,0.10000000000000001,1,10],|}
    ^ {|"buckets":[1,0,0,0,0,1,0,0,0]}}}|})
    (Obs.Export.to_json snap);
  Alcotest.(check string) "empty snapshot" {|{"counters":{},"histograms":{}}|}
    (Obs.Export.to_json [])

let () =
  Alcotest.run "obs"
    [
      ( "scalars",
        [
          Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
          Alcotest.test_case "make is idempotent" `Quick
            test_counter_idempotent_make;
          Alcotest.test_case "bad names rejected" `Quick test_bad_name_rejected;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantile;
          Alcotest.test_case "bucket quantile edges" `Quick
            test_bucket_quantile_edges;
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
          Alcotest.test_case "JSON shape" `Quick test_json_shape;
        ] );
    ]
