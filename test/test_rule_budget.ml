module Rb = Nfv_multicast.Rule_budget
module Fr = Nfv_multicast.Flow_rules
module Adm = Nfv_multicast.Admission
module Pt = Nfv_multicast.Pseudo_tree
module N = Sdn.Network
module Rng = Topology.Rng

let fixture () =
  let rng = Rng.create 1 in
  let topo =
    Topology.Topo.make ~name:"path"
      (Mcgraph.Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ])
  in
  N.make
    ~profile:(N.uniform_profile ~link_capacity:10_000.0 ~server_capacity:8000.0)
    ~rng ~servers:[ 2 ] topo

let request id =
  Sdn.Request.make ~id ~source:0 ~destinations:[ 4 ] ~bandwidth:10.0
    ~chain:[ Sdn.Vnf.Nat ]

let rules_of net =
  let req = request 0 in
  let pt =
    Pt.make ~request:req ~servers:[ 2 ]
      ~edge_uses:[ (0, 1); (1, 1); (2, 1); (3, 1) ]
      ~routes:[ (4, { Pt.to_server = [ 0; 1 ]; server = 2; onward = [ 2; 3 ] }) ]
  in
  Fr.of_pseudo_tree net pt

let test_install_uninstall () =
  let net = fixture () in
  let b = Rb.create net ~capacity:4 in
  let rules = rules_of net in
  (match Rb.install b rules with
  | Ok () -> ()
  | Error e -> Alcotest.failf "install: %s" e);
  Alcotest.(check int) "server switch holds 2" 2 (Rb.used b 2);
  Alcotest.(check int) "total" (Fr.total_rules rules) (Rb.total_used b);
  Rb.uninstall b rules;
  Alcotest.(check int) "empty again" 0 (Rb.total_used b)

let test_overflow_rejected () =
  let net = fixture () in
  let b = Rb.create net ~capacity:1 in
  let rules = rules_of net in
  match Rb.install b rules with
  | Ok () -> Alcotest.fail "should overflow"
  | Error _ -> Alcotest.(check int) "atomic: nothing charged" 0 (Rb.total_used b)

let test_over_release () =
  let net = fixture () in
  let b = Rb.create net ~capacity:10 in
  Alcotest.check_raises "double free"
    (Invalid_argument "Rule_budget.uninstall: over-release") (fun () ->
      Rb.uninstall b (rules_of net))

let test_admit_rolls_back_resources () =
  let net = fixture () in
  let b = Rb.create net ~capacity:1 in
  (match Rb.admit b net Adm.Sp (request 0) with
  | Ok _ -> Alcotest.fail "should reject on tables"
  | Error e ->
    Alcotest.(check bool) "reason names tables" true
      (String.length e > 0 && String.sub e 0 10 = "forwarding"));
  for e = 0 to N.m net - 1 do
    Tutil.assert_close "bandwidth rolled back" (N.link_capacity net e)
      (N.link_residual net e)
  done

let test_admit_accepts_and_charges () =
  let net = fixture () in
  let b = Rb.create net ~capacity:10 in
  match Rb.admit b net Adm.Sp (request 0) with
  | Error e -> Alcotest.failf "admit: %s" e
  | Ok (_, rules) ->
    Alcotest.(check bool) "tables charged" true (Rb.total_used b > 0);
    Alcotest.(check int) "matches compiled size" (Fr.total_rules rules)
      (Rb.total_used b)

let test_create_validation () =
  let net = fixture () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Rule_budget.create: negative capacity") (fun () ->
      ignore (Rb.create net ~capacity:(-1)))

let prop_budget_invariant =
  Tutil.qtest ~count:30 "per-switch usage never exceeds capacity"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:10 ~hi:25 in
      let budget = Rb.create net ~capacity:8 in
      let reqs = Workload.Gen.sequence rng net ~count:40 in
      List.iter
        (fun r -> ignore (Rb.admit budget net Adm.Online_cp_no_threshold r))
        reqs;
      let ok = ref true in
      for v = 0 to N.n net - 1 do
        if Rb.used budget v > Rb.capacity budget then ok := false
      done;
      !ok)

let prop_churn_restores_tables =
  Tutil.qtest ~count:20 "install/uninstall round-trips under churn"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:10 ~hi:25 in
      let budget = Rb.create net ~capacity:50 in
      let reqs = Workload.Gen.sequence rng net ~count:20 in
      let installed =
        List.filter_map
          (fun r ->
            match Rb.admit budget net Adm.Sp r with
            | Ok (tree, rules) -> Some (tree, rules)
            | Error _ -> None)
          reqs
      in
      List.iter
        (fun (tree, rules) ->
          Rb.uninstall budget rules;
          N.release net (Pt.allocation tree))
        installed;
      Rb.total_used budget = 0)

let () =
  Alcotest.run "rule_budget"
    [
      ( "unit",
        [
          Alcotest.test_case "install/uninstall" `Quick test_install_uninstall;
          Alcotest.test_case "overflow rejected atomically" `Quick
            test_overflow_rejected;
          Alcotest.test_case "over-release" `Quick test_over_release;
          Alcotest.test_case "admit rolls back" `Quick test_admit_rolls_back_resources;
          Alcotest.test_case "admit charges" `Quick test_admit_accepts_and_charges;
          Alcotest.test_case "create validation" `Quick test_create_validation;
        ] );
      ("property", [ prop_budget_invariant; prop_churn_restores_tables ]);
    ]
