module B = Nfv_multicast.Batch
module N = Sdn.Network
module Cp = Nfv_multicast.Online_cp
module G = Mcgraph.Graph
module Rng = Topology.Rng
module Obs = Nfv_obs.Obs

let with_obs f =
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

let counter name = Obs.Counter.value (Obs.Counter.make name)

let mk seed count =
  let rng = Rng.create seed in
  let topo = Topology.Waxman.generate ~alpha:0.35 ~beta:0.3 rng ~n:40 in
  let net = N.make_random_servers ~fraction:0.15 ~rng topo in
  let reqs = Workload.Gen.sequence rng net ~count in
  (net, reqs)

let test_order_names () =
  Alcotest.(check string) "arrival" "arrival" (B.order_to_string B.Arrival);
  Alcotest.(check string) "smallest" "smallest-first"
    (B.order_to_string B.Smallest_first);
  Alcotest.(check string) "largest" "largest-first"
    (B.order_to_string B.Largest_first);
  Alcotest.(check string) "cheapest" "cheapest-first"
    (B.order_to_string B.Cheapest_first)

let test_plan_counts () =
  let net, reqs = mk 1 40 in
  let r = B.plan ~k:2 net reqs B.Arrival in
  Alcotest.(check int) "partition" 40 (r.B.admitted + r.B.rejected);
  Alcotest.(check int) "trees recorded" r.B.admitted (List.length r.B.trees);
  Alcotest.(check bool) "cost accumulates" true
    (r.B.total_cost > 0.0 || r.B.admitted = 0)

let test_plan_trees_valid () =
  let net, reqs = mk 2 30 in
  let r = B.plan ~k:2 net reqs B.Smallest_first in
  List.iter
    (fun (_, t) ->
      match Nfv_multicast.Pseudo_tree.validate net t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid tree: %s" e)
    r.B.trees

let test_compare_orders_covers_all () =
  let net, reqs = mk 3 25 in
  let results = B.compare_orders ~k:2 net reqs in
  Alcotest.(check int) "four policies" 4 (List.length results);
  List.iter
    (fun (o, (r : B.result)) ->
      Alcotest.(check bool) "order echoed" true (r.B.order = o))
    results

let test_light_load_order_irrelevant () =
  (* with almost no contention every order admits everything *)
  let net, reqs = mk 4 5 in
  let results = B.compare_orders ~k:2 net reqs in
  List.iter
    (fun (_, (r : B.result)) -> Alcotest.(check int) "all admitted" 5 r.B.admitted)
    results

let prop_capacity_safe =
  Tutil.qtest ~count:20 "batch planning never exceeds capacity"
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, oi) ->
      let order = [| B.Arrival; B.Smallest_first; B.Largest_first; B.Cheapest_first |].(oi) in
      let net, reqs = mk (seed + 7) 50 in
      ignore (B.plan ~k:2 net reqs order);
      let ok = ref true in
      for e = 0 to N.m net - 1 do
        if N.link_residual net e < -1e-6 then ok := false
      done;
      !ok)

(* --- regression: ordering vs reset, and reset:false semantics ---------- *)

let plan_fingerprint (r : B.result) =
  ((r.B.admitted, r.B.rejected), (r.B.total_cost, List.map fst r.B.trees))

let fingerprint_t =
  Alcotest.(pair (pair int int) (pair (float 0.0) (list int)))

(* [plan] used to run Cheapest_first's pricing solves *before* the
   network reset, so leftover residuals from an earlier run could leak
   into the promised idle-network prices. Pricing must see the reset
   state: a polluted network and a fresh twin must produce the same
   plan, bit for bit. *)
let test_cheapest_pricing_sees_reset_state () =
  let net1, reqs1 = mk 9 30 in
  let net2, reqs2 = mk 9 30 in
  (* pollute net1 with a run under another policy, then replan *)
  ignore (B.plan ~k:2 net1 reqs1 B.Largest_first);
  let polluted = B.plan ~k:2 net1 reqs1 B.Cheapest_first in
  let fresh = B.plan ~k:2 net2 reqs2 B.Cheapest_first in
  Alcotest.check fingerprint_t
    "identical plan from polluted and fresh networks"
    (plan_fingerprint fresh) (plan_fingerprint polluted)

let test_reset_false_plans_against_residuals () =
  let net, reqs = mk 10 20 in
  (* drain every link: nothing can be admitted against these residuals *)
  for e = 0 to N.m net - 1 do
    match N.allocate net { N.links = [ (e, N.link_residual net e) ]; nodes = [] } with
    | Ok () -> ()
    | Error err -> Alcotest.failf "drain: %s" err
  done;
  let starved = B.plan ~k:2 ~reset:false net reqs B.Cheapest_first in
  Alcotest.(check int) "reset:false keeps the drained residuals" 0
    starved.B.admitted;
  (* the default reset restores capacity — and therefore admissions *)
  let recovered = B.plan ~k:2 net reqs B.Cheapest_first in
  Alcotest.(check bool) "default reset recovers capacity" true
    (recovered.B.admitted > 0)

let test_plan_deterministic_across_twins () =
  let net1, reqs1 = mk 11 35 in
  let net2, reqs2 = mk 11 35 in
  let r1 = B.plan ~k:2 net1 reqs1 B.Cheapest_first in
  let r2 = B.plan ~k:2 net2 reqs2 B.Cheapest_first in
  Alcotest.check fingerprint_t
    "twin networks, twin plans" (plan_fingerprint r1) (plan_fingerprint r2)

(* --- the availability floor in plan and compare_orders ------------------ *)

(* the 6-node designed net of test_dynamic_churn: one server (node 2),
   six 100-Mbps links, so one SRLG group over every edge pools 600 Mbps *)
let designed_net () =
  let g = G.create 6 in
  ignore (G.add_edge g 0 1);
  ignore (G.add_edge g 1 2);
  ignore (G.add_edge g 2 3);
  ignore (G.add_edge g 1 4);
  ignore (G.add_edge g 4 3);
  ignore (G.add_edge g 4 5);
  let topo = Topology.Topo.make ~name:"batch-net" g in
  N.make_explicit ~topology:topo
    ~servers:[ (2, 1000.0, 1.0) ]
    ~link_capacities:(Array.make (G.m g) 100.0)
    ~link_unit_costs:(Array.make (G.m g) 1.0) ()

let mk_request ~id ~bandwidth =
  Sdn.Request.make ~id ~source:0 ~destinations:[ 3 ] ~bandwidth
    ~chain:[ Sdn.Vnf.Firewall ]

(* [floor_blocks] used to release and re-commit every admitted
   allocation whenever reserve > 0 — two extra weight-epoch bumps per
   admit, flushing every Sp_window engine even though the floor passed.
   A plan whose floor never blocks must now leave the same epoch trail
   and the same shortest-path cache hit/miss profile as a plan with no
   [srlg] at all. *)
let test_passing_floor_no_epoch_churn () =
  with_obs @@ fun () ->
  let reqs =
    List.map (fun id -> mk_request ~id ~bandwidth:5.0) [ 0; 1; 2 ]
  in
  (* reserve 0.1 on the 600-Mbps group: three 15-Mbps trees leave 555,
     far above the 60-Mbps floor — every admit passes *)
  let run floored =
    let net = designed_net () in
    let avail =
      if floored then
        Some (Cp.make_avail ~reserve:0.1 net [| List.init (N.m net) Fun.id |])
      else None
    in
    let e0 = N.weight_epoch net in
    let h0 = counter "sp_engine.cache_hits" in
    let m0 = counter "sp_engine.cache_misses" in
    let r = B.plan ?avail net reqs B.Arrival in
    ( r.B.admitted,
      N.weight_epoch net - e0,
      counter "sp_engine.cache_hits" - h0,
      counter "sp_engine.cache_misses" - m0 )
  in
  let admitted, epochs, hits, misses = run false in
  let admitted', epochs', hits', misses' = run true in
  Alcotest.(check int) "baseline admits all" 3 admitted;
  Alcotest.(check int) "floored plan admits the same" admitted admitted';
  Alcotest.(check int) "a passing floor adds no epoch bumps" epochs epochs';
  Alcotest.(check int) "same shortest-path cache hits" hits hits';
  Alcotest.(check int) "same shortest-path cache misses" misses misses'

(* compare_orders used to silently drop [?avail]: the floor could never
   flip an order's outcome. With a 480-Mbps floor on the 600-Mbps
   group, a 40-Mbps tree (120 Mbps over 3 links) lands exactly on the
   floor, after which nothing else fits — so largest-first admits only
   the big request while smallest-first packs both small ones first. *)
let test_compare_orders_floor_flips_an_order () =
  let reqs =
    [
      mk_request ~id:0 ~bandwidth:40.0;
      mk_request ~id:1 ~bandwidth:10.0;
      mk_request ~id:2 ~bandwidth:10.0;
    ]
  in
  let net = designed_net () in
  let admitted order results =
    let r = List.assq order results in
    r.B.admitted
  in
  (* without the floor every order admits everything *)
  let free = B.compare_orders net reqs in
  List.iter
    (fun (_, (r : B.result)) ->
      Alcotest.(check int) "no floor: all admitted" 3 r.B.admitted)
    free;
  let tight =
    Cp.make_avail ~reserve:0.8 net [| List.init (N.m net) Fun.id |]
  in
  let floored = B.compare_orders ~avail:tight net reqs in
  Alcotest.(check int) "smallest-first packs the two small requests" 2
    (admitted B.Smallest_first floored);
  Alcotest.(check int) "largest-first lands on the floor and stops" 1
    (admitted B.Largest_first floored)

(* with [reset:false] every order must start from the caller's
   residuals — and leave them back in place afterwards *)
let test_compare_orders_reset_false () =
  let net = designed_net () in
  (* drain the only edge out of the source: nothing can be admitted *)
  (match N.allocate net { N.links = [ (0, 95.0) ]; nodes = [] } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "drain: %s" e);
  let before = Array.init (N.m net) (N.link_residual net) in
  let reqs = [ mk_request ~id:0 ~bandwidth:10.0 ] in
  let starved = B.compare_orders ~reset:false net reqs in
  List.iter
    (fun (_, (r : B.result)) ->
      Alcotest.(check int) "reset:false sees the drained residuals" 0
        r.B.admitted)
    starved;
  for e = 0 to N.m net - 1 do
    Tutil.assert_close "caller residuals restored after the comparison"
      before.(e) (N.link_residual net e)
  done;
  (* the default still resets: every order admits on the fresh net *)
  let fresh = B.compare_orders net reqs in
  List.iter
    (fun (_, (r : B.result)) ->
      Alcotest.(check int) "reset:true admits" 1 r.B.admitted)
    fresh

(* the packing-order advantage is statistical, not per-draw: aggregate
   over several fixed seeds *)
let test_smallest_beats_largest_in_aggregate () =
  let small_total = ref 0 and large_total = ref 0 in
  List.iter
    (fun seed ->
      let net, reqs = mk (seed + 300) 120 in
      let small = B.plan ~k:1 net reqs B.Smallest_first in
      let large = B.plan ~k:1 net reqs B.Largest_first in
      small_total := !small_total + small.B.admitted;
      large_total := !large_total + large.B.admitted)
    [ 0; 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "aggregate ordering advantage" true
    (!small_total >= !large_total)

let () =
  Alcotest.run "batch"
    [
      ( "unit",
        [
          Alcotest.test_case "order names" `Quick test_order_names;
          Alcotest.test_case "plan counters" `Quick test_plan_counts;
          Alcotest.test_case "trees valid" `Quick test_plan_trees_valid;
          Alcotest.test_case "compare_orders" `Quick test_compare_orders_covers_all;
          Alcotest.test_case "light load" `Quick test_light_load_order_irrelevant;
        ] );
      ( "regression",
        [
          Alcotest.test_case "cheapest-first prices the reset state" `Quick
            test_cheapest_pricing_sees_reset_state;
          Alcotest.test_case "reset:false plans against residuals" `Quick
            test_reset_false_plans_against_residuals;
          Alcotest.test_case "deterministic across twins" `Quick
            test_plan_deterministic_across_twins;
          Alcotest.test_case "passing floor adds no epoch churn" `Quick
            test_passing_floor_no_epoch_churn;
          Alcotest.test_case "compare_orders threads the floor" `Quick
            test_compare_orders_floor_flips_an_order;
          Alcotest.test_case "compare_orders reset:false" `Quick
            test_compare_orders_reset_false;
        ] );
      ( "statistical",
        [
          Alcotest.test_case "smallest beats largest in aggregate" `Slow
            test_smallest_beats_largest_in_aggregate;
        ] );
      ("property", [ prop_capacity_safe ]);
    ]
