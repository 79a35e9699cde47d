module Fr = Nfv_multicast.Flow_rules
module Pt = Nfv_multicast.Pseudo_tree
module N = Sdn.Network
module Rng = Topology.Rng

(* path network 0-1-2-3-4, server at 2 (same fixture as test_pseudo_tree) *)
let fixture () =
  let rng = Rng.create 1 in
  let topo =
    Topology.Topo.make ~name:"path"
      (Mcgraph.Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ])
  in
  N.make
    ~profile:(N.uniform_profile ~link_capacity:1000.0 ~server_capacity:8000.0)
    ~rng ~servers:[ 2 ] topo

let request () =
  Sdn.Request.make ~id:7 ~source:0 ~destinations:[ 4 ] ~bandwidth:10.0
    ~chain:[ Sdn.Vnf.Nat ]

let simple_tree () =
  let req = request () in
  Pt.make ~request:req ~servers:[ 2 ]
    ~edge_uses:[ (0, 1); (1, 1); (2, 1); (3, 1) ]
    ~routes:[ (4, { Pt.to_server = [ 0; 1 ]; server = 2; onward = [ 2; 3 ] }) ]

let test_compile_path () =
  let net = fixture () in
  let rules = Fr.of_pseudo_tree net (simple_tree ()) in
  (* 0,1 forward untagged; 2 has To_vm + tagged injection; 3 forwards
     tagged; 4 delivers *)
  Alcotest.(check (list int)) "state at every hop" [ 0; 1; 2; 3; 4 ]
    (Fr.switches_with_state rules);
  Alcotest.(check int) "server holds two rules" 2 (Fr.table_size rules 2);
  Alcotest.(check int) "total rules" 6 (Fr.total_rules rules)

let test_simulation_delivers () =
  let net = fixture () in
  let rules = Fr.of_pseudo_tree net (simple_tree ()) in
  let d = Fr.simulate net rules ~source:0 in
  Alcotest.(check (list int)) "delivered" [ 4 ] d.Fr.delivered;
  Alcotest.(check (list int)) "processed at server" [ 2 ] d.Fr.processed_at;
  Alcotest.(check (list (pair int int))) "each link once"
    [ (0, 1); (1, 1); (2, 1); (3, 1) ]
    d.Fr.link_loads

let test_verify_ok () =
  let net = fixture () in
  match Fr.verify net (simple_tree ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %s" e

let test_verify_rejects_missing_route () =
  let net = fixture () in
  let req = request () in
  (* witness that stops short of the destination *)
  let bad =
    Pt.make ~request:req ~servers:[ 2 ]
      ~edge_uses:[ (0, 1); (1, 1); (2, 1); (3, 1) ]
      ~routes:[ (4, { Pt.to_server = [ 0; 1 ]; server = 2; onward = [ 2 ] }) ]
  in
  match Fr.verify net bad with
  | Ok () -> Alcotest.fail "should reject short route"
  | Error _ -> ()

let test_backtrack_structure () =
  (* Y shape: 0-1 (trunk), 1-2 (to server), 1-3 (to dest). The processed
     packet backtracks from server 2 over edge 1 before descending to 3;
     edge 1 must carry two traversals. *)
  let rng = Rng.create 1 in
  let topo =
    Topology.Topo.make ~name:"Y"
      (Mcgraph.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (1, 3) ])
  in
  let net =
    N.make
      ~profile:(N.uniform_profile ~link_capacity:1000.0 ~server_capacity:8000.0)
      ~rng ~servers:[ 2 ] topo
  in
  let req =
    Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0
      ~chain:[ Sdn.Vnf.Nat ]
  in
  let pt =
    Pt.make ~request:req ~servers:[ 2 ]
      ~edge_uses:[ (0, 1); (1, 2); (2, 1) ]
      ~routes:[ (3, { Pt.to_server = [ 0; 1 ]; server = 2; onward = [ 1; 2 ] }) ]
  in
  (match Fr.verify net pt with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %s" e);
  let rules = Fr.of_pseudo_tree net pt in
  let d = Fr.simulate net rules ~source:0 in
  Alcotest.(check (list int)) "delivered" [ 3 ] d.Fr.delivered;
  (* edge 1 carries the packet up and back *)
  Alcotest.(check (option int)) "edge 1 twice" (Some 2)
    (List.assoc_opt 1 d.Fr.link_loads)

let test_multi_server_sharing () =
  (* two servers, two destinations; merged untagged rules fan out at the
     source *)
  let rng = Rng.create 1 in
  let g =
    Mcgraph.Graph.of_edges ~n:7
      [ (0, 1); (1, 5); (5, 2); (0, 3); (3, 6); (6, 4) ]
  in
  let net =
    N.make
      ~profile:(N.uniform_profile ~link_capacity:10_000.0 ~server_capacity:8000.0)
      ~rng ~servers:[ 5; 6 ]
      (Topology.Topo.make ~name:"two-cluster" g)
  in
  let req =
    Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 2; 4 ] ~bandwidth:100.0
      ~chain:[ Sdn.Vnf.Nat ]
  in
  match Nfv_multicast.Appro_multi.solve ~k:2 net req with
  | Error e -> Alcotest.failf "solve: %s" e
  | Ok res ->
    (match Fr.verify net res.Nfv_multicast.Appro_multi.tree with
    | Ok () -> ()
    | Error e -> Alcotest.failf "verify: %s" e);
    let rules = Fr.of_pseudo_tree net res.Nfv_multicast.Appro_multi.tree in
    let d = Fr.simulate net rules ~source:0 in
    Alcotest.(check (list int)) "both delivered" [ 2; 4 ] d.Fr.delivered;
    Alcotest.(check (list int)) "both VMs used" [ 5; 6 ] d.Fr.processed_at

(* every solver's output passes the independent data-plane check *)
let prop_appro_verifies =
  Tutil.qtest ~count:80 "Appro_Multi output passes data-plane verification"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:6 ~hi:25 in
      let req = Tutil.random_request rng net ~id:0 in
      match Nfv_multicast.Appro_multi.solve ~k:3 net req with
      | Error _ -> true
      | Ok res -> (
        match Fr.verify net res.Nfv_multicast.Appro_multi.tree with
        | Ok () -> true
        | Error _ -> false))

let prop_one_server_verifies =
  Tutil.qtest ~count:80 "Alg_One_Server output passes data-plane verification"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:6 ~hi:25 in
      let req = Tutil.random_request rng net ~id:0 in
      match Nfv_multicast.One_server.solve net req with
      | Error _ -> true
      | Ok res -> (
        match Fr.verify net res.Nfv_multicast.One_server.tree with
        | Ok () -> true
        | Error _ -> false))

let prop_online_cp_verifies =
  Tutil.qtest ~count:40 "Online_CP admissions pass data-plane verification"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:8 ~hi:20 in
      let reqs = Workload.Gen.sequence rng net ~count:25 in
      List.for_all
        (fun r ->
          match Nfv_multicast.Online_cp.admit (Tutil.cp_pricing net) r with
          | Nfv_multicast.Online_cp.Admitted a -> (
            match Fr.verify net a.Nfv_multicast.Online_cp.tree with
            | Ok () -> true
            | Error _ -> false)
          | Nfv_multicast.Online_cp.Rejected _ -> true)
        reqs)

let prop_sp_verifies =
  Tutil.qtest ~count:40 "SP admissions pass data-plane verification"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:8 ~hi:20 in
      let reqs = Workload.Gen.sequence rng net ~count:25 in
      List.for_all
        (fun r ->
          match
            Nfv_multicast.Online_sp.admit (Nfv_multicast.Sp_window.create net) r
          with
          | Nfv_multicast.Online_sp.Admitted a -> (
            match Fr.verify net a.Nfv_multicast.Online_sp.tree with
            | Ok () -> true
            | Error _ -> false)
          | Nfv_multicast.Online_sp.Rejected _ -> true)
        reqs)

let prop_loads_within_reservation =
  Tutil.qtest ~count:60 "simulated loads never exceed reservations"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:6 ~hi:25 in
      let req = Tutil.random_request rng net ~id:0 in
      match Oracle.Exact.optimal ~k:2 net req with
      | Error _ -> true
      | exception Invalid_argument _ -> true
      | Ok opt ->
        let pt = opt.Oracle.Exact.mtree in
        let rules = Fr.of_pseudo_tree net pt in
        let d = Fr.simulate net rules ~source:req.Sdn.Request.source in
        List.for_all
          (fun (e, load) ->
            match List.assoc_opt e pt.Pt.edge_uses with
            | Some uses -> load <= uses
            | None -> false)
          d.Fr.link_loads)

let () =
  Alcotest.run "flow_rules"
    [
      ( "unit",
        [
          Alcotest.test_case "compile path" `Quick test_compile_path;
          Alcotest.test_case "simulate delivers" `Quick test_simulation_delivers;
          Alcotest.test_case "verify ok" `Quick test_verify_ok;
          Alcotest.test_case "verify rejects short route" `Quick
            test_verify_rejects_missing_route;
          Alcotest.test_case "backtrack double traversal" `Quick
            test_backtrack_structure;
          Alcotest.test_case "multi-server sharing" `Quick test_multi_server_sharing;
        ] );
      ( "property",
        [
          prop_appro_verifies;
          prop_one_server_verifies;
          prop_online_cp_verifies;
          prop_sp_verifies;
          prop_loads_within_reservation;
        ] );
    ]
