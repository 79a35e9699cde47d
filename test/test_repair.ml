(* Failure injection (Sdn.Fault) + tiered recovery (Repair): designed
   nets pinning which tier fires, and the resource-exactness property —
   injection and repair conserve capacity exactly, dropped sessions leak
   nothing. *)

module G = Mcgraph.Graph
module N = Sdn.Network
module Fault = Sdn.Fault
module Adm = Nfv_multicast.Admission
module Cp = Nfv_multicast.Online_cp
module Pt = Nfv_multicast.Pseudo_tree
module Repair = Nfv_multicast.Repair
module W = Nfv_multicast.Sp_window
module Dyn = Nfv_multicast.Dynamic
module Rng = Topology.Rng
module Obs = Nfv_obs.Obs

let with_obs f =
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

(* the five repair outcome counters, read as one tuple *)
let repair_counters () =
  let v name = Obs.Counter.value (Obs.Counter.make name) in
  ( v "repair.attempted",
    v "repair.patched",
    v "repair.migrated",
    v "repair.readmitted",
    v "repair.dropped" )

let check_counters_sum ~before ~after =
  let a0, p0, m0, r0, d0 = before and a1, p1, m1, r1, d1 = after in
  Alcotest.(check int)
    "repair.* tier counters sum to repair.attempted" (a1 - a0)
    (p1 - p0 + (m1 - m0) + (r1 - r0) + (d1 - d0))

let mk_request ~id ~source ~destinations ~bandwidth =
  Sdn.Request.make ~id ~source ~destinations ~bandwidth
    ~chain:[ Sdn.Vnf.Firewall ]

let repair_with ~window ~fault net tree =
  Repair.repair (Adm.pricing ~window net Adm.Online_cp)
    ~link_down:(Fault.link_is_down fault)
    ~server_down:(Fault.server_is_down fault)
    tree

(* ---- designed net 1: a single link failure with a detour ----
       0 --e0-- 1 --e1-- 2(srv)
                |         |
                e3       e2
                |         |
                4 --e4-- 3(dest)
   Admitted tree: 0-1-2-3. Killing e2 severs the destination; the patch
   tier must re-attach it through 4 and keep server 2. *)
let patch_net () =
  let g = G.create 5 in
  let e0 = G.add_edge g 0 1 in
  let e1 = G.add_edge g 1 2 in
  let e2 = G.add_edge g 2 3 in
  let e3 = G.add_edge g 1 4 in
  let e4 = G.add_edge g 4 3 in
  let topo = Topology.Topo.make ~name:"patch-net" g in
  let m = G.m g in
  let net =
    N.make_explicit ~topology:topo
      ~servers:[ (2, 1000.0, 1.0) ]
      ~link_capacities:(Array.make m 100.0)
      ~link_unit_costs:(Array.make m 1.0) ()
  in
  (net, (e0, e1, e2, e3, e4))

let test_single_edge_failure_is_patched () =
  with_obs @@ fun () ->
  let net, (e0, e1, e2, _e3, _e4) = patch_net () in
  let req = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0 in
  let tree =
    match Adm.admit_tree net Adm.Online_cp req with
    | Ok t -> t
    | Error e -> Alcotest.failf "admission failed: %s" e
  in
  Alcotest.(check (list int))
    "admitted along the short path" [ e0; e1; e2 ]
    (List.sort compare (List.map fst tree.Pt.edge_uses));
  let fault = Fault.create net in
  let before = repair_counters () in
  let victims = Fault.inject fault ~live:[ (0, Pt.allocation tree) ] (Fault.Link_down e2) in
  Alcotest.(check (list int)) "the session is evicted" [ 0 ] victims;
  Alcotest.(check bool) "link marked down" true (Fault.link_is_down fault e2);
  let window = W.create net in
  (match repair_with ~window ~fault net tree with
  | Repair.Repaired { tree = t'; tier = Repair.Patched } ->
    (match Pt.validate net t' with
    | Ok () -> ()
    | Error e -> Alcotest.failf "patched tree invalid: %s" e);
    Alcotest.(check (list int)) "server kept" [ 2 ] t'.Pt.servers;
    let support = List.sort compare (List.map fst t'.Pt.edge_uses) in
    Alcotest.(check bool)
      "patched tree avoids the down link" false (List.mem e2 support)
  | Repair.Repaired { tier; _ } ->
    Alcotest.failf "wrong tier: %s (local patch is feasible)"
      (Tutil.tier_to_string tier)
  | Repair.Dropped msg -> Alcotest.failf "dropped: %s" msg);
  check_counters_sum ~before ~after:(repair_counters ())

(* the same two failures under every algorithm's pricing: a cut link is
   patched around through node 4 (server kept), a dead lone server drops
   the session with tier 3's rejection reason. Recorded before the
   pricing context replaced the per-algorithm plumbing. *)
let test_repair_per_algorithm () =
  let edges (t : Pt.t) =
    String.concat ","
      (List.map (fun (e, m) -> Printf.sprintf "%d*%d" e m) t.Pt.edge_uses)
  in
  let show = function
    | Repair.Repaired { tree; tier } ->
      Printf.sprintf "%s servers=%s edges=%s" (Tutil.tier_to_string tier)
        (String.concat "," (List.map string_of_int tree.Pt.servers))
        (edges tree)
    | Repair.Dropped msg -> "dropped: " ^ msg
  in
  let case algo event =
    let net, (_, _, e2, _, _) = patch_net () in
    let req = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0 in
    let tree =
      match Adm.admit_tree net algo req with
      | Ok t -> t
      | Error e -> Alcotest.failf "admission failed: %s" e
    in
    let fault = Fault.create net in
    let event = if event = `Link then Fault.Link_down e2 else Fault.Server_down 2 in
    ignore (Fault.inject fault ~live:[ (0, Pt.allocation tree) ] event);
    let out =
      Repair.repair (Adm.pricing net algo)
        ~link_down:(Fault.link_is_down fault)
        ~server_down:(Fault.server_is_down fault)
        tree
    in
    (match out with
    | Repair.Repaired { tree; _ } -> (
      match Pt.validate net tree with
      | Ok () -> ()
      | Error e -> Alcotest.failf "repaired tree invalid: %s" e)
    | Repair.Dropped _ -> ());
    show out
  in
  List.iter
    (fun algo ->
      let name = Adm.algorithm_to_string algo in
      Alcotest.(check string) (name ^ ": cut link")
        "patched servers=2 edges=0*1,1*2,3*1,4*1" (case algo `Link);
      Alcotest.(check string) (name ^ ": dead lone server")
        "dropped: no server with enough computing residual"
        (case algo `Server))
    [ Adm.Online_cp; Adm.Online_cp_no_threshold; Adm.Online_linear; Adm.Sp ]

(* healing restores exactly the confiscated capacity *)
let test_heal_restores_capacity () =
  let net, (_, _, e2, _, _) = patch_net () in
  let fault = Fault.create net in
  ignore (Fault.inject fault ~live:[] (Fault.Link_down e2));
  Alcotest.(check (Alcotest.float 1e-9)) "down link has zero residual" 0.0
    (N.link_residual net e2);
  Alcotest.(check (Alcotest.float 1e-9)) "confiscation = capacity" 100.0
    (Fault.confiscated_link fault e2);
  ignore (Fault.inject fault ~live:[] (Fault.Link_up e2));
  Alcotest.(check (Alcotest.float 1e-9)) "residual restored" 100.0
    (N.link_residual net e2);
  Alcotest.(check bool) "flag cleared" false (Fault.link_is_down fault e2)

(* ---- designed net 2: server failure with an alternative server ----
       0 --e0-- 1 --e1-- 2(srvA)
                |\
               e2 e3
                |  \
         (dest) 3   5 --e4-- 4(srvB)
   A is admitted (closer); killing A must migrate the chain to B while
   keeping the surviving 0-1-3 tree. *)
let migrate_net () =
  let g = G.create 6 in
  let e0 = G.add_edge g 0 1 in
  let e1 = G.add_edge g 1 2 in
  let e2 = G.add_edge g 1 3 in
  let e3 = G.add_edge g 1 5 in
  let e4 = G.add_edge g 5 4 in
  let topo = Topology.Topo.make ~name:"migrate-net" g in
  let m = G.m g in
  let net =
    N.make_explicit ~topology:topo
      ~servers:[ (2, 1000.0, 1.0); (4, 1000.0, 1.0) ]
      ~link_capacities:(Array.make m 100.0)
      ~link_unit_costs:(Array.make m 1.0) ()
  in
  (net, (e0, e1, e2, e3, e4))

let test_server_failure_is_migrated () =
  with_obs @@ fun () ->
  let net, (e0, e1, e2, e3, e4) = migrate_net () in
  let req = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0 in
  let tree =
    match Adm.admit_tree net Adm.Online_cp req with
    | Ok t -> t
    | Error e -> Alcotest.failf "admission failed: %s" e
  in
  Alcotest.(check (list int)) "server A chosen" [ 2 ] tree.Pt.servers;
  let fault = Fault.create net in
  let before = repair_counters () in
  let victims =
    Fault.inject fault ~live:[ (0, Pt.allocation tree) ] (Fault.Server_down 2)
  in
  Alcotest.(check (list int)) "the session is evicted" [ 0 ] victims;
  let window = W.create net in
  (match repair_with ~window ~fault net tree with
  | Repair.Repaired { tree = t'; tier = Repair.Migrated } ->
    (match Pt.validate net t' with
    | Ok () -> ()
    | Error e -> Alcotest.failf "migrated tree invalid: %s" e);
    Alcotest.(check (list int)) "chain moved to B" [ 4 ] t'.Pt.servers;
    let support = List.sort compare (List.map fst t'.Pt.edge_uses) in
    Alcotest.(check (list int))
      "surviving tree kept, B attached" [ e0; e2; e3; e4 ] support;
    Alcotest.(check bool) "old server edge dropped" false (List.mem e1 support)
  | Repair.Repaired { tier; _ } ->
    Alcotest.failf "wrong tier: %s" (Tutil.tier_to_string tier)
  | Repair.Dropped msg -> Alcotest.failf "dropped: %s" msg);
  check_counters_sum ~before ~after:(repair_counters ())

(* only server down, no alternative anywhere: every tier fails and the
   drop must leave the network exactly as the failure left it *)
let test_lone_server_failure_is_dropped () =
  with_obs @@ fun () ->
  let net, _ = patch_net () in
  let req = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0 in
  let tree =
    match Adm.admit_tree net Adm.Online_cp req with
    | Ok t -> t
    | Error e -> Alcotest.failf "admission failed: %s" e
  in
  let fault = Fault.create net in
  let before = repair_counters () in
  let victims =
    Fault.inject fault ~live:[ (0, Pt.allocation tree) ] (Fault.Server_down 2)
  in
  Alcotest.(check (list int)) "the session is evicted" [ 0 ] victims;
  let window = W.create net in
  (match repair_with ~window ~fault net tree with
  | Repair.Dropped _ -> ()
  | Repair.Repaired { tier; _ } ->
    Alcotest.failf "no server is available, yet %s" (Tutil.tier_to_string tier));
  check_counters_sum ~before ~after:(repair_counters ());
  (* nothing leaked: every link back to capacity, the server fully
     confiscated and nothing else held *)
  for e = 0 to N.m net - 1 do
    Tutil.assert_close "link residual back to capacity"
      (N.link_capacity net e) (N.link_residual net e)
  done;
  Tutil.assert_close "server residual all confiscated" 0.0
    (N.server_residual net 2);
  Tutil.assert_close "confiscation equals capacity"
    (N.server_capacity net 2)
    (Fault.confiscated_server fault 2)

(* a degradation that needs no eviction has no victims *)
let test_degrade_without_eviction () =
  let net, (e0, _, _, _, _) = patch_net () in
  let fault = Fault.create net in
  let victims = Fault.inject fault ~live:[] (Fault.Degrade_link (e0, 0.5)) in
  Alcotest.(check (list int)) "no victims" [] victims;
  Alcotest.(check bool) "degraded is not down" false (Fault.link_is_down fault e0);
  Tutil.assert_close "half the capacity confiscated" 50.0
    (Fault.confiscated_link fault e0);
  (* degrading again to a lower target confiscates nothing more *)
  ignore (Fault.inject fault ~live:[] (Fault.Degrade_link (e0, 0.25)));
  Tutil.assert_close "confiscation is monotone (max of targets)" 50.0
    (Fault.confiscated_link fault e0)

(* ---- the conservation property ----------------------------------------

   Drive a random online admission sequence (no departures) against a
   random failure timeline on the arrival-index clock through
   Dynamic.run, which repairs every victim. After every observed event
   and at the end:
     capacity(r) = residual(r) + confiscated(r) + Σ live allocations on r
   for every link and server; tier counters sum to attempted; live trees
   stay valid. *)

let churn_property seed =
  with_obs @@ fun () ->
  let net, rng = Tutil.random_network seed ~lo:12 ~hi:24 in
  let count = 16 in
  let trace =
    List.mapi
      (fun i request -> { Dyn.at = float_of_int i; holding = infinity; request })
      (Workload.Gen.sequence rng net ~count)
  in
  (* strikes half-way between arrivals; same-slot ties fire in an order
     the queue picks, which the property does not depend on *)
  let timeline =
    Fault.random_timeline ~heal_after:3 ~rng ~slots:count ~events:6 net
    |> List.map (fun (s : Fault.stamped) -> { s with Fault.at = s.Fault.at +. 0.5 })
  in
  let fault = Fault.create net in
  let before = repair_counters () in
  let live = ref [] in
  let observe _ h =
    (match h with
    | Dyn.Arrived { id; tree = Some t } | Dyn.Repaired { id; tree = t; _ } ->
      live := (id, t) :: List.remove_assoc id !live
    | Dyn.Fault_fired { victims; _ } ->
      live := List.filter (fun (id, _) -> not (List.mem id victims)) !live
    | Dyn.Arrived _ | Dyn.Departed _ | Dyn.Dropped _ | Dyn.Restored _ -> ());
    Tutil.check_conservation ~ctx:"strike" net fault (List.map snd !live)
  in
  ignore
    (Dyn.run
       ~faults:(Dyn.make_faults ~controller:fault ~restore:None timeline)
       ~observe net Adm.Online_cp trace);
  Tutil.check_conservation ~ctx:"final" net fault (List.map snd !live);
  List.iter
    (fun (id, t) ->
      match Pt.validate net t with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "live tree %d invalid: %s" id e)
    !live;
  let a0, p0, m0, r0, d0 = before and a1, p1, m1, r1, d1 = repair_counters () in
  if a1 - a0 <> p1 - p0 + (m1 - m0) + (r1 - r0) + (d1 - d0) then
    QCheck.Test.fail_reportf "tier counters do not sum to repair.attempted";
  (* healing everything must confiscate nothing and restore the full
     idle capacity net of what the surviving sessions still hold *)
  Fault.heal_all fault;
  for e = 0 to N.m net - 1 do
    if Fault.confiscated_link fault e <> 0.0 then
      QCheck.Test.fail_reportf "after heal_all, link %d still confiscated" e
  done;
  List.iter
    (fun v ->
      if Fault.confiscated_server fault v <> 0.0 then
        QCheck.Test.fail_reportf "after heal_all, server %d still confiscated"
          v)
    (N.servers net);
  Tutil.check_conservation ~ctx:"after heal_all" net fault (List.map snd !live);
  true

let () =
  Alcotest.run "repair"
    [
      ( "designed",
        [
          Alcotest.test_case "single edge failure -> patched" `Quick
            test_single_edge_failure_is_patched;
          Alcotest.test_case "heal restores capacity" `Quick
            test_heal_restores_capacity;
          Alcotest.test_case "server failure -> migrated" `Quick
            test_server_failure_is_migrated;
          Alcotest.test_case "lone server failure -> dropped" `Quick
            test_lone_server_failure_is_dropped;
          Alcotest.test_case "degrade without eviction" `Quick
            test_degrade_without_eviction;
          Alcotest.test_case "every algorithm's pricing repairs alike" `Quick
            test_repair_per_algorithm;
        ] );
      ( "property",
        [
          Tutil.qtest ~count:40 "injection + repair conserves resources"
            QCheck.small_nat churn_property;
        ] );
    ]
