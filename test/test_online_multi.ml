module Om = Nfv_multicast.Online_multi
module Pt = Nfv_multicast.Pseudo_tree
module N = Sdn.Network
module Rng = Topology.Rng
module W = Nfv_multicast.Sp_window

let mk_net seed =
  let rng = Rng.create seed in
  let topo = Topology.Waxman.generate ~alpha:0.4 ~beta:0.3 rng ~n:30 in
  (N.make_random_servers ~fraction:0.2 ~rng topo, rng)

let test_admits_idle () =
  let net, rng = mk_net 1 in
  let req = Workload.Gen.request rng net ~id:0 in
  match Om.admit ~k:2 (W.create net) req with
  | Om.Rejected msg -> Alcotest.failf "idle network: %s" msg
  | Om.Admitted a -> (
    Alcotest.(check bool) "≤ 2 servers" true (List.length a.Om.servers <= 2);
    match Pt.validate net a.Om.tree with
    | Ok () -> ()
    | Error e -> Alcotest.failf "invalid: %s" e)

let test_rejects_starved () =
  let net, rng = mk_net 2 in
  List.iter
    (fun v ->
      match
        N.allocate net { N.links = []; nodes = [ (v, N.server_residual net v) ] }
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "drain: %s" e)
    (N.servers net);
  let req = Workload.Gen.request rng net ~id:0 in
  match Om.admit (W.create net) req with
  | Om.Rejected _ -> ()
  | Om.Admitted _ -> Alcotest.fail "should reject"

let test_k_validation () =
  let net, rng = mk_net 3 in
  let req = Workload.Gen.request rng net ~id:0 in
  Alcotest.check_raises "k=0" (Invalid_argument "Appro_multi: K must be at least 1")
    (fun () -> ignore (Om.admit ~k:0 (W.create net) req))

let prop_capacity_invariant =
  Tutil.qtest ~count:30 "online multi never exceeds capacities"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net, rng = mk_net (seed + 50) in
      let reqs = Workload.Gen.sequence rng net ~count:60 in
      ignore (Om.run ~k:2 net reqs);
      let ok = ref true in
      for e = 0 to N.m net - 1 do
        if N.link_residual net e < -1e-6 then ok := false
      done;
      List.iter
        (fun v -> if N.server_residual net v < -1e-6 then ok := false)
        (N.servers net);
      !ok)

let prop_trees_validate =
  Tutil.qtest ~count:25 "admitted multi-server trees validate on both planes"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net, rng = mk_net (seed + 500) in
      let reqs = Workload.Gen.sequence rng net ~count:30 in
      N.reset net;
      List.for_all
        (fun r ->
          match Om.admit ~k:2 (W.create net) r with
          | Om.Admitted a -> (
            (match Pt.validate net a.Om.tree with Ok () -> true | Error _ -> false)
            &&
            match Nfv_multicast.Flow_rules.verify net a.Om.tree with
            | Ok () -> true
            | Error _ -> false)
          | Om.Rejected _ -> true)
        reqs)

(* One window for a whole run shares its engines across
   requests; Sp_window's keying makes that exact, so every decision must
   match a fresh window per request (a private engine per admit), bit
   for bit, through the final residuals. *)
let prop_shared_window_exact =
  Tutil.qtest ~count:20
    "Online_multi: shared window = fresh window per request, bit for bit"
    QCheck.(pair (int_bound 10_000) (int_range 1 3))
    (fun (seed, k) ->
      let shared_net, rng = mk_net (seed + 1300) in
      let fresh_net, _ = mk_net (seed + 1300) in
      let reqs = Workload.Gen.sequence rng shared_net ~count:60 in
      let shared = W.create shared_net in
      let bits = Int64.bits_of_float in
      let same_decision r =
        match
          (Om.admit ~k shared r, Om.admit ~k (W.create fresh_net) r)
        with
        | Om.Admitted a, Om.Admitted b ->
          a.Om.tree = b.Om.tree && a.Om.servers = b.Om.servers
          && bits a.Om.score = bits b.Om.score
        | Om.Rejected a, Om.Rejected b -> a = b
        | _ -> false
      in
      List.for_all same_decision reqs
      && List.for_all
           (fun e ->
             bits (N.link_residual shared_net e)
             = bits (N.link_residual fresh_net e))
           (List.init (N.m shared_net) Fun.id)
      && List.for_all
           (fun v ->
             bits (N.server_residual shared_net v)
             = bits (N.server_residual fresh_net v))
           (N.servers shared_net))

(* under load, the K=2 variant should do at least as well as K=1 of the
   same policy (it strictly generalises the search space) *)
let prop_k2_not_worse_on_average =
  Tutil.qtest ~count:8 "K=2 admits at least ~ as many as K=1"
    QCheck.(int_bound 1_000)
    (fun seed ->
      let net, rng = mk_net (seed + 900) in
      let reqs = Workload.Gen.sequence rng net ~count:150 in
      let k1 = Om.run ~k:1 net reqs in
      let k2 = Om.run ~k:2 net reqs in
      (* admission is path-dependent; allow 10% slack *)
      float_of_int k2 >= 0.9 *. float_of_int k1)

let () =
  Alcotest.run "online_multi"
    [
      ( "unit",
        [
          Alcotest.test_case "admits idle" `Quick test_admits_idle;
          Alcotest.test_case "rejects starved" `Quick test_rejects_starved;
          Alcotest.test_case "k validation" `Quick test_k_validation;
        ] );
      ( "property",
        [
          prop_capacity_invariant;
          prop_trees_validate;
          prop_k2_not_worse_on_average;
          prop_shared_window_exact;
        ] );
    ]
