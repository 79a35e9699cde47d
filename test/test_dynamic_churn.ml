(* The failure-aware dynamic simulator: a designed trace pinning the
   exact merged event order (arrival / departure / fault / heal /
   restoration) with its tier counters, the capacity-conservation
   property after EVERY merged event, bit-identity of fault-free runs
   with the pre-fault simulator, the [~reset:false] contract, and the
   SRLG generator. *)

module G = Mcgraph.Graph
module N = Sdn.Network
module Fault = Sdn.Fault
module Adm = Nfv_multicast.Admission
module Dyn = Nfv_multicast.Dynamic
module Pt = Nfv_multicast.Pseudo_tree
module Cp = Nfv_multicast.Online_cp
module Repair = Nfv_multicast.Repair
module Rng = Topology.Rng
module Obs = Nfv_obs.Obs

let with_obs f =
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

let counters names () =
  List.map (fun n -> Obs.Counter.value (Obs.Counter.make n)) names

let repair_counters =
  counters
    [
      "repair.attempted"; "repair.patched"; "repair.migrated";
      "repair.readmitted"; "repair.dropped";
    ]

let restoration_counters =
  counters [ "restoration.attempted"; "restoration.restored"; "restoration.failed" ]

let deltas before after = List.map2 (fun a b -> b - a) before after

let mk_request ~id ~source ~destinations ~bandwidth =
  Sdn.Request.make ~id ~source ~destinations ~bandwidth
    ~chain:[ Sdn.Vnf.Firewall ]

(* ---- the designed 6-node trace -----------------------------------------
       0 --e0-- 1 --e1-- 2(srv)
                |         |
                e3       e2
                |         |
                4 --e4-- 3(dest)
                |
                e5
                |
                5
   Two identical sessions 0 -> 3 through server 2. The timeline cuts
   e2 (both patched through 4), then kills the only server (session 0,
   still live, is dropped into the backlog), then heals the link (the
   restoration pass runs and fails — server still down) and finally the
   server (session 0 is restored). *)

let designed_net () =
  let g = G.create 6 in
  let e0 = G.add_edge g 0 1 in
  let e1 = G.add_edge g 1 2 in
  let e2 = G.add_edge g 2 3 in
  let e3 = G.add_edge g 1 4 in
  let e4 = G.add_edge g 4 3 in
  let e5 = G.add_edge g 4 5 in
  ignore (e0, e1, e3, e4, e5);
  let topo = Topology.Topo.make ~name:"churn-net" g in
  let net =
    N.make_explicit ~topology:topo
      ~servers:[ (2, 1000.0, 1.0) ]
      ~link_capacities:(Array.make (G.m g) 100.0)
      ~link_unit_costs:(Array.make (G.m g) 1.0) ()
  in
  (net, e2)

let designed_trace () =
  [
    {
      Dyn.at = 1.0;
      holding = 100.0;
      request = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0;
    };
    {
      Dyn.at = 2.0;
      holding = 3.0;
      request = mk_request ~id:1 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0;
    };
  ]

let designed_timeline e2 =
  [
    { Fault.at = 4.0; event = Fault.Link_down e2 };
    { Fault.at = 6.0; event = Fault.Server_down 2 };
    { Fault.at = 8.0; event = Fault.Link_up e2 };
    { Fault.at = 9.0; event = Fault.Server_up 2 };
  ]

let event_name = function
  | Fault.Link_down e -> Printf.sprintf "link_down:%d" e
  | Fault.Link_up e -> Printf.sprintf "link_up:%d" e
  | Fault.Server_down v -> Printf.sprintf "server_down:%d" v
  | Fault.Server_up v -> Printf.sprintf "server_up:%d" v
  | Fault.Degrade_link (e, f) -> Printf.sprintf "degrade_link:%d:%g" e f
  | Fault.Degrade_server (v, f) -> Printf.sprintf "degrade_server:%d:%g" v f

let describe (t, h) =
  match h with
  | Dyn.Arrived { id; tree } ->
    Printf.sprintf "%g arrived %d %s" t id
      (match tree with Some _ -> "admitted" | None -> "rejected")
  | Dyn.Departed { id; released } ->
    Printf.sprintf "%g departed %d %s" t id
      (if released then "released" else "noop")
  | Dyn.Fault_fired { event; victims } ->
    Printf.sprintf "%g fault %s victims=[%s]" t (event_name event)
      (String.concat ";" (List.map string_of_int victims))
  | Dyn.Repaired { id; tier; _ } ->
    Printf.sprintf "%g repaired %d %s" t id (Tutil.tier_to_string tier)
  | Dyn.Dropped { id } -> Printf.sprintf "%g dropped %d" t id
  | Dyn.Restored { id; _ } -> Printf.sprintf "%g restored %d" t id

let test_designed_trace () =
  with_obs @@ fun () ->
  let net, e2 = designed_net () in
  let rep0 = repair_counters () and res0 = restoration_counters () in
  let seen = ref [] in
  let observe t h = seen := (t, h) :: !seen in
  let s =
    Dyn.run
      ~faults:(Dyn.make_faults (designed_timeline e2))
      ~observe net Adm.Online_cp (designed_trace ())
  in
  Alcotest.(check (list string))
    "the exact merged event order"
    [
      "1 arrived 0 admitted";
      "2 arrived 1 admitted";
      "4 fault link_down:2 victims=[0;1]";
      "4 repaired 0 patched";
      "4 repaired 1 patched";
      "5 departed 1 released";
      "6 fault server_down:2 victims=[0]";
      "6 dropped 0";
      "8 fault link_up:2 victims=[]";
      "9 fault server_up:2 victims=[]";
      "9 restored 0";
      "101 departed 0 released";
    ]
    (List.rev_map describe !seen);
  Alcotest.(check int) "arrivals" 2 s.Dyn.arrivals;
  Alcotest.(check int) "admitted" 2 s.Dyn.admitted;
  Alcotest.(check int) "completed" 2 s.Dyn.completed;
  Alcotest.(check int) "evicted" 3 s.Dyn.evicted;
  Alcotest.(check int) "repaired" 2 s.Dyn.repaired;
  Alcotest.(check int) "dropped" 1 s.Dyn.dropped;
  Alcotest.(check int) "restored" 1 s.Dyn.restored;
  Alcotest.(check int) "peak" 2 s.Dyn.peak_concurrent;
  Alcotest.(check (list int))
    "repair counter deltas (attempted/patched/migrated/readmitted/dropped)"
    [ 3; 2; 0; 0; 1 ]
    (deltas rep0 (repair_counters ()));
  Alcotest.(check (list int))
    "restoration counter deltas (attempted/restored/failed)" [ 2; 1; 1 ]
    (deltas res0 (restoration_counters ()));
  (* every session ended (departed or never restored): the heals returned
     every confiscation, so the network is whole again *)
  for e = 0 to N.m net - 1 do
    Tutil.assert_close "link residual back to capacity" (N.link_capacity net e)
      (N.link_residual net e)
  done;
  Tutil.assert_close "server residual back to capacity"
    (N.server_capacity net 2) (N.server_residual net 2)

(* the double-release hazard: with restoration disabled, session 0 is
   dropped at the server failure and its departure at t=101 must be a
   no-op — the buggy behaviour (releasing the eviction-released tree
   again) would push residuals over capacity *)
(* a strike on a link or node outside the network, or on a non-server,
   must fail in [Fault.inject]'s own validation, with a live session on
   the network (the run reads the struck resource's holders first) *)
let test_bad_strike_targets () =
  let net, _ = designed_net () in
  let trace = [ List.hd (designed_trace ()) ] in
  List.iter
    (fun (event, msg) ->
      Alcotest.check_raises (event_name event) (Invalid_argument msg)
        (fun () ->
          ignore
            (Dyn.run
               ~faults:(Dyn.make_faults [ { Fault.at = 2.0; event } ])
               net Adm.Online_cp trace)))
    [
      (Fault.Link_down (N.m net), "Fault.inject: bad edge");
      (Fault.Degrade_link (-1, 0.5), "Fault.inject: bad edge");
      (Fault.Server_down 1, "Fault.inject: not a server");
      (Fault.Degrade_server (N.n net, 0.5), "Fault.inject: not a server");
      (Fault.Server_down (-1), "Fault.inject: not a server");
    ]

(* every arm's id and fraction checks, through [Fault.inject] itself
   (in a run, [Fault.confiscated_link] rejects a bad [Link_up] first);
   a rejected event changes nothing *)
let test_inject_rejects_bad_events () =
  let net, _ = designed_net () in
  let fault = Fault.create net in
  let frac = "Fault.inject: fraction outside [0, 1]" in
  List.iter
    (fun (event, msg) ->
      Alcotest.check_raises (event_name event) (Invalid_argument msg)
        (fun () -> ignore (Fault.inject fault ~live:[] event)))
    [
      (Fault.Link_up (N.m net), "Fault.inject: bad edge");
      (Fault.Link_up (-1), "Fault.inject: bad edge");
      (Fault.Server_up 1, "Fault.inject: not a server");
      (Fault.Server_up (N.n net), "Fault.inject: not a server");
      (Fault.Degrade_link (0, 1.5), frac);
      (Fault.Degrade_link (0, -0.1), frac);
      (Fault.Degrade_link (0, Float.nan), frac);
      (Fault.Degrade_server (2, 1.5), frac);
      (Fault.Degrade_server (2, -0.1), frac);
    ];
  for e = 0 to N.m net - 1 do
    Alcotest.(check (float 0.0)) "nothing confiscated" 0.0
      (Fault.confiscated_link fault e);
    Alcotest.(check (float 0.0)) "link untouched" (N.link_capacity net e)
      (N.link_residual net e)
  done;
  Alcotest.(check (float 0.0)) "server untouched" (N.server_capacity net 2)
    (N.server_residual net 2)

(* an event [Fault.inject] rejects is not counted as injected; an
   accepted one is, once *)
let test_rejected_events_not_counted () =
  with_obs @@ fun () ->
  let net, _ = designed_net () in
  let fault = Fault.create net in
  let injected =
    counters
      [
        "fault.injected.link_down"; "fault.injected.link_up";
        "fault.injected.degrade_link"; "fault.injected.server_down";
        "fault.injected.server_up"; "fault.injected.degrade_server";
      ]
  in
  let before = injected () in
  List.iter
    (fun event ->
      match Fault.inject fault ~live:[] event with
      | _ -> Alcotest.failf "%s accepted" (event_name event)
      | exception Invalid_argument _ -> ())
    [
      Fault.Link_up (-1); Fault.Degrade_link (0, 1.5);
      Fault.Server_down 1; Fault.Degrade_server (2, Float.nan);
    ];
  Alcotest.(check (list int)) "rejected events count nothing"
    [ 0; 0; 0; 0; 0; 0 ]
    (deltas before (injected ()));
  ignore (Fault.inject fault ~live:[] (Fault.Degrade_link (0, 0.5)));
  Alcotest.(check (list int)) "an accepted event counts once"
    [ 0; 0; 1; 0; 0; 0 ]
    (deltas before (injected ()))

let test_dropped_session_departure_is_noop () =
  let net, e2 = designed_net () in
  let seen = ref [] in
  let observe t h = seen := (t, h) :: !seen in
  let s =
    Dyn.run
      ~faults:(Dyn.make_faults ~restore:None (designed_timeline e2))
      ~observe net Adm.Online_cp (designed_trace ())
  in
  Alcotest.(check int) "nothing restored" 0 s.Dyn.restored;
  Alcotest.(check int) "only session 1 completed" 1 s.Dyn.completed;
  Alcotest.(check string) "the last event is the no-op departure"
    "101 departed 0 noop"
    (describe (List.hd !seen));
  for e = 0 to N.m net - 1 do
    Tutil.assert_close "no double release: residual equals capacity"
      (N.link_capacity net e) (N.link_residual net e)
  done;
  Tutil.assert_close "server residual exact" (N.server_capacity net 2)
    (N.server_residual net 2)

(* ---- restoration order is deterministic under ties ----------------------
   Two identical sessions (equal Smallest_first footprint) are both
   dropped by a server failure; the heal's restoration pass must
   re-admit them in request-id order. The backlog lives in a hashtable,
   so without the explicit pre-sort before [Batch.reorder] the fold
   order (hence the tie order the stable sort preserves) would be
   whatever the table's bucket layout happens to be. *)
let test_restoration_order_on_ties () =
  let net, _ = designed_net () in
  let trace =
    [
      {
        Dyn.at = 1.0;
        holding = 100.0;
        request = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0;
      };
      {
        Dyn.at = 2.0;
        holding = 100.0;
        request = mk_request ~id:1 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0;
      };
    ]
  in
  let timeline =
    [
      { Fault.at = 4.0; event = Fault.Server_down 2 };
      { Fault.at = 6.0; event = Fault.Server_up 2 };
    ]
  in
  let seen = ref [] in
  let observe t h = seen := (t, h) :: !seen in
  let s =
    Dyn.run ~faults:(Dyn.make_faults timeline) ~observe net Adm.Online_cp trace
  in
  Alcotest.(check (list string))
    "tied backlog entries restore in request-id order"
    [
      "1 arrived 0 admitted";
      "2 arrived 1 admitted";
      "4 fault server_down:2 victims=[0;1]";
      "4 dropped 0";
      "4 dropped 1";
      "6 fault server_up:2 victims=[]";
      "6 restored 0";
      "6 restored 1";
      "101 departed 0 released";
      "102 departed 1 released";
    ]
    (List.rev_map describe !seen);
  Alcotest.(check int) "both dropped" 2 s.Dyn.dropped;
  Alcotest.(check int) "both restored" 2 s.Dyn.restored;
  Alcotest.(check int) "both completed" 2 s.Dyn.completed

(* ---- fault-free bit-identity -------------------------------------------
   Without faults the simulator must report exactly what the pre-fault
   simulator did: same queue construction, same admissions, same
   time-averaged integrals. Pinned against values recorded from the
   pre-change seed on this (seed, trace) pair, and cross-checked
   against a run with an EMPTY timeline (the fault plumbing engaged but
   never firing), which must match field for field. *)

let mk_random_net seed =
  let rng = Rng.create seed in
  let topo = Topology.Waxman.generate ~alpha:0.4 ~beta:0.3 rng ~n:30 in
  (N.make_random_servers ~fraction:0.2 ~rng topo, rng)

let test_fault_free_regression () =
  let net, rng = mk_random_net 3 in
  let trace = Dyn.poisson_trace rng net ~rate:1.0 ~mean_holding:5.0 ~count:150 in
  let s = Dyn.run net Adm.Online_cp_no_threshold trace in
  Alcotest.(check int) "arrivals" 150 s.Dyn.arrivals;
  Alcotest.(check int) "admitted" 150 s.Dyn.admitted;
  Alcotest.(check int) "rejected" 0 s.Dyn.rejected;
  Alcotest.(check int) "completed" 150 s.Dyn.completed;
  Alcotest.(check int) "peak_concurrent" 13 s.Dyn.peak_concurrent;
  Alcotest.(check (float 1e-12)) "acceptance_ratio" 1.0 s.Dyn.acceptance_ratio;
  Alcotest.(check (float 1e-12)) "mean_concurrent" 5.1931939958136484
    s.Dyn.mean_concurrent;
  Alcotest.(check (float 1e-12)) "mean_utilization" 0.022334650899745515
    s.Dyn.mean_utilization;
  Alcotest.(check (float 1e-12)) "horizon" 162.28070351053435 s.Dyn.horizon;
  Alcotest.(check int) "evicted" 0 s.Dyn.evicted;
  Alcotest.(check int) "repaired" 0 s.Dyn.repaired;
  Alcotest.(check int) "dropped" 0 s.Dyn.dropped;
  Alcotest.(check int) "restored" 0 s.Dyn.restored;
  (* an empty timeline engages the fault machinery but never fires:
     every field must be identical *)
  let net2, rng2 = mk_random_net 3 in
  let trace2 =
    Dyn.poisson_trace rng2 net2 ~rate:1.0 ~mean_holding:5.0 ~count:150
  in
  let s2 =
    Dyn.run ~faults:(Dyn.make_faults []) net2 Adm.Online_cp_no_threshold trace2
  in
  Alcotest.(check bool) "empty timeline is bit-identical" true (s = s2)

(* ---- every algorithm under SRLG cuts -----------------------------------
   One seeded GEANT trace under correlated cuts, per algorithm, with and
   without an exposure surcharge: arrivals, every repair tier, drops and
   restorations all occur. The MD5 of the full [happened] stream (ids,
   tiers, servers and edge uses of every tree, hex-float timestamps)
   and of the stats pins each algorithm's branch of the pricing map, so
   a refactor of the cost-model plumbing must reproduce every decision
   exactly. Recorded before the pricing context existed. *)

let add_tree buf (t : Pt.t) =
  List.iter (fun v -> Printf.bprintf buf " s%d" v) t.Pt.servers;
  List.iter (fun (e, m) -> Printf.bprintf buf " %d*%d" e m) t.Pt.edge_uses

let add_happened buf t h =
  Printf.bprintf buf "%h " t;
  (match h with
  | Dyn.Arrived { id; tree = None } -> Printf.bprintf buf "A%d -" id
  | Dyn.Arrived { id; tree = Some t } ->
    Printf.bprintf buf "A%d" id;
    add_tree buf t
  | Dyn.Departed { id; released } -> Printf.bprintf buf "D%d %b" id released
  | Dyn.Fault_fired { victims; _ } ->
    Printf.bprintf buf "F";
    List.iter (Printf.bprintf buf " %d") victims
  | Dyn.Repaired { id; tier; tree } ->
    Printf.bprintf buf "R%d %s" id (Tutil.tier_to_string tier);
    add_tree buf tree
  | Dyn.Dropped { id } -> Printf.bprintf buf "X%d" id
  | Dyn.Restored { id; tree } ->
    Printf.bprintf buf "S%d" id;
    add_tree buf tree);
  Buffer.add_char buf '\n'

let srlg_run_digest algo ~alpha =
  let rng = Rng.create 41 in
  let net =
    N.make ~rng ~servers:Topology.Geant.default_servers
      (Topology.Geant.topology ())
  in
  let groups = Fault.srlg_partition ~groups:6 ~rng net in
  let trace =
    Dyn.poisson_trace rng net ~rate:2.0 ~mean_holding:100.0 ~count:300
  in
  let horizon =
    List.fold_left (fun h (a : Dyn.arrival) -> Float.max h a.Dyn.at) 1.0 trace
  in
  let timeline =
    Fault.srlg_timeline ~heal_after:20.0 ~rng ~horizon ~events:12 groups
  in
  let avail =
    Option.map
      (fun alpha -> Cp.make_avail ~alpha net groups)
      alpha
  in
  let buf = Buffer.create 65536 in
  let s =
    Dyn.run ~faults:(Dyn.make_faults timeline) ?avail ~observe:(add_happened buf)
      net algo trace
  in
  Printf.bprintf buf "%d %d %d %d %d %h %d %h %h %h %d %d %d %d\n"
    s.Dyn.arrivals s.Dyn.admitted s.Dyn.rejected s.Dyn.completed
    s.Dyn.peak_concurrent s.Dyn.acceptance_ratio 0 s.Dyn.mean_concurrent
    s.Dyn.mean_utilization s.Dyn.horizon s.Dyn.evicted s.Dyn.repaired
    s.Dyn.dropped s.Dyn.restored;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_srlg_run_per_algorithm () =
  List.iter
    (fun (algo, plain, surcharged) ->
      let name = Adm.algorithm_to_string algo in
      Alcotest.(check string) (name ^ ", no avail") plain
        (srlg_run_digest algo ~alpha:None);
      Alcotest.(check string) (name ^ ", alpha = 1") surcharged
        (srlg_run_digest algo ~alpha:(Some 1.0)))
    [
      ( Adm.Online_cp,
        "ae7dfd8db640287f1029ec3a8fb69dff",
        "d09cb33181115d8d518b774e9e438088" );
      ( Adm.Online_cp_no_threshold,
        "3acc0c9ee962a2cecbb2277b499e5ccb",
        "da20daacb73162b6964019ebe6970665" );
      ( Adm.Online_linear,
        "cf3c5fd543660b11e61f40cbc98762a0",
        "17c3bab16c8ebb8d887491d088d28f70" );
      ( Adm.Sp,
        "45a8a4baf5b5ccf1b5def8a0e980b5e5",
        "4e842b332025e54dfefd00a15cebb2c4" );
    ]

(* ---- the reset:false contract ------------------------------------------ *)

let test_reset_false_keeps_caller_state () =
  let net, _ = designed_net () in
  let pre = mk_request ~id:99 ~source:0 ~destinations:[ 3 ] ~bandwidth:25.0 in
  (match Adm.admit_tree net Adm.Online_cp pre with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pre-allocation failed: %s" e);
  let before_links = Array.init (N.m net) (N.link_residual net) in
  let before_server = N.server_residual net 2 in
  Alcotest.(check bool) "pre-allocation holds capacity" true
    (before_links.(0) < 100.0);
  (* a short session arrives and departs on top of the caller's state *)
  let trace =
    [
      {
        Dyn.at = 1.0;
        holding = 2.0;
        request = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0;
      };
    ]
  in
  let s = Dyn.run ~reset:false net Adm.Online_cp trace in
  Alcotest.(check int) "session admitted on residual capacity" 1 s.Dyn.admitted;
  for e = 0 to N.m net - 1 do
    Tutil.assert_close "reset:false ends on the caller's residuals"
      before_links.(e) (N.link_residual net e)
  done;
  Tutil.assert_close "server residual preserved" before_server
    (N.server_residual net 2);
  (* the default wipes the caller's state *)
  let s' = Dyn.run net Adm.Online_cp trace in
  Alcotest.(check int) "admitted after reset" 1 s'.Dyn.admitted;
  for e = 0 to N.m net - 1 do
    Tutil.assert_close "reset:true returns to full capacity"
      (N.link_capacity net e) (N.link_residual net e)
  done

(* ---- SRLG generator ----------------------------------------------------- *)

let test_srlg_partition_geant () =
  let rng = Rng.create 11 in
  let net = Sdn.Network.make_random_servers ~fraction:0.2 ~rng (Topology.Geant.topology ()) in
  let m = N.m net in
  let groups = Fault.srlg_partition ~groups:8 ~rng net in
  Alcotest.(check bool) "at most 8 groups" true (Array.length groups <= 8);
  Array.iter
    (fun g ->
      Alcotest.(check bool) "no empty group" true (g <> []);
      Alcotest.(check (list int)) "members ascend" (List.sort compare g) g)
    groups;
  let all = Array.to_list groups |> List.concat |> List.sort compare in
  Alcotest.(check (list int)) "groups partition every edge"
    (List.init m Fun.id) all;
  (* deterministic: an equal-seed draw reproduces the partition *)
  let rng2 = Rng.create 11 in
  let net2 =
    Sdn.Network.make_random_servers ~fraction:0.2 ~rng:rng2 (Topology.Geant.topology ())
  in
  let groups2 = Fault.srlg_partition ~groups:8 ~rng:rng2 net2 in
  Alcotest.(check bool) "same seed, same partition" true (groups = groups2)

(* edge cases of the partition generator: more groups than links, a
   single group, a two-link network, an edgeless network — none may
   produce an empty group or raise past the documented
   [Invalid_argument] on [groups <= 0] *)
let two_link_net () =
  let g = G.create 3 in
  let e0 = G.add_edge g 0 1 in
  let e1 = G.add_edge g 1 2 in
  ignore (e0, e1);
  let topo = Topology.Topo.make ~name:"two-link" g in
  N.make_explicit ~topology:topo
    ~servers:[ (1, 100.0, 1.0) ]
    ~link_capacities:(Array.make (G.m g) 100.0)
    ~link_unit_costs:(Array.make (G.m g) 1.0) ()

let check_partition ~m groups =
  Array.iter
    (fun g -> Alcotest.(check bool) "no empty group" true (g <> []))
    groups;
  let all = Array.to_list groups |> List.concat |> List.sort compare in
  Alcotest.(check (list int)) "partition covers every edge exactly once"
    (List.init m Fun.id) all

let test_srlg_partition_edge_cases () =
  (* round-robin branch (no coordinates): groups > |E| clamps to |E| *)
  let net = two_link_net () in
  let groups = Fault.srlg_partition ~groups:5 ~rng:(Rng.create 1) net in
  Alcotest.(check int) "two links, five requested: two groups" 2
    (Array.length groups);
  check_partition ~m:2 groups;
  (* a single group holds every edge *)
  let one = Fault.srlg_partition ~groups:1 ~rng:(Rng.create 1) net in
  Alcotest.(check int) "one group" 1 (Array.length one);
  Alcotest.(check (list int)) "the group is all edges" [ 0; 1 ] one.(0);
  (* geometric branch (GEANT coordinates): groups > |E| clamps too *)
  let rng = Rng.create 11 in
  let gnet =
    Sdn.Network.make_random_servers ~fraction:0.2 ~rng
      (Topology.Geant.topology ())
  in
  let m = N.m gnet in
  let big = Fault.srlg_partition ~groups:(m + 10) ~rng gnet in
  Alcotest.(check bool) "at most |E| groups" true (Array.length big <= m);
  check_partition ~m big;
  (* an edgeless network partitions into nothing *)
  let g0 = G.create 1 in
  let empty_net =
    N.make_explicit
      ~topology:(Topology.Topo.make ~name:"edgeless" g0)
      ~servers:[ (0, 1.0, 1.0) ]
      ~link_capacities:[||] ~link_unit_costs:[||] ()
  in
  Alcotest.(check int) "edgeless network: no groups" 0
    (Array.length (Fault.srlg_partition ~groups:4 ~rng:(Rng.create 1) empty_net));
  (* the documented failure mode, and the only one *)
  Alcotest.(check bool) "groups <= 0 raises Invalid_argument" true
    (try
       ignore (Fault.srlg_partition ~groups:0 ~rng:(Rng.create 1) net);
       false
     with Invalid_argument _ -> true)

(* every degradation [random_timeline] draws confiscates exactly half its
   target's capacity *)
let test_random_timeline_degrades_by_half () =
  let net, rng = Tutil.random_network 3 ~lo:12 ~hi:20 in
  let tl = Fault.random_timeline ~heal_after:4 ~rng ~slots:50 ~events:200 net in
  let links = ref 0 and servers = ref 0 in
  List.iter
    (fun (s : Fault.stamped) ->
      match s.Fault.event with
      | Fault.Degrade_link (_, f) ->
        incr links;
        Alcotest.(check (float 0.0)) "link degradation fraction" 0.5 f
      | Fault.Degrade_server (_, f) ->
        incr servers;
        Alcotest.(check (float 0.0)) "server degradation fraction" 0.5 f
      | _ -> ())
    tl;
  Alcotest.(check bool) "both degradation kinds drawn" true
    (!links > 0 && !servers > 0)

let test_srlg_timeline_shape () =
  let rng = Rng.create 5 in
  let groups = [| [ 0; 1 ]; [ 2 ]; [ 3; 4; 5 ] |] in
  let tl = Fault.srlg_timeline ~heal_after:2.0 ~rng ~horizon:10.0 ~events:4 groups in
  (* every cut emits one Link_down per member and a matching heal 2.0
     later; the whole timeline is time-sorted *)
  let downs =
    List.filter (fun (s : Fault.stamped) ->
        match s.Fault.event with Fault.Link_down _ -> true | _ -> false)
      tl
  in
  let ups =
    List.filter (fun (s : Fault.stamped) ->
        match s.Fault.event with Fault.Link_up _ -> true | _ -> false)
      tl
  in
  Alcotest.(check int) "as many heals as cuts" (List.length downs)
    (List.length ups);
  let rec sorted = function
    | (a : Fault.stamped) :: (b :: _ as rest) ->
      a.Fault.at <= b.Fault.at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by time" true (sorted tl);
  List.iter
    (fun (s : Fault.stamped) ->
      match s.Fault.event with
      | Fault.Link_down e ->
        let healed =
          List.exists
            (fun (u : Fault.stamped) ->
              u.Fault.event = Fault.Link_up e
              && Float.abs (u.Fault.at -. (s.Fault.at +. 2.0)) < 1e-9)
            ups
        in
        Alcotest.(check bool) "each cut heals exactly heal_after later" true
          healed
      | _ -> ())
    downs;
  (* singleton groups: one link per cut — the matched independent baseline *)
  let rng' = Rng.create 5 in
  let singles = Array.init 6 (fun e -> [ e ]) in
  let tl' =
    Fault.srlg_timeline ~heal_after:2.0 ~rng:rng' ~horizon:10.0 ~events:4 singles
  in
  Alcotest.(check int) "4 cuts + 4 heals" 8 (List.length tl');
  Alcotest.(check bool) "timeline validation" true
    (try
       ignore
         (Fault.srlg_timeline ~heal_after:1.0 ~rng ~horizon:10.0 ~events:1
            [||]);
       false
     with Invalid_argument _ -> true)

(* ---- conservation after every merged event ------------------------------
   capacity(r) = residual(r) + confiscated(r) + Σ live allocations on r,
   checked after EVERY observed event: the new surface is departures and
   restorations interleaved with confiscation. The shadow live set is
   maintained purely from the [happened] stream. *)

let conservation_property seed =
  with_obs @@ fun () ->
  let net, rng = Tutil.random_network seed ~lo:12 ~hi:24 in
  let trace = Dyn.poisson_trace rng net ~rate:3.0 ~mean_holding:6.0 ~count:24 in
  let horizon =
    List.fold_left (fun acc a -> Float.max acc a.Dyn.at) 1.0 trace *. 1.25
  in
  let timeline =
    let slots = int_of_float (Float.round horizon) in
    Fault.random_timeline ~heal_after:(max 1 (slots / 5)) ~rng ~slots ~events:8
      net
  in
  let fault = Fault.create net in
  let shadow : (int, Pt.t) Hashtbl.t = Hashtbl.create 16 in
  let rep0 = repair_counters () and res0 = restoration_counters () in
  let observe _t h =
    (match h with
    | Dyn.Arrived { id; tree = Some t } -> Hashtbl.replace shadow id t
    | Dyn.Arrived { tree = None; _ } -> ()
    | Dyn.Departed { id; released = true } -> Hashtbl.remove shadow id
    | Dyn.Departed { released = false; _ } -> ()
    | Dyn.Fault_fired { victims; _ } ->
      List.iter (Hashtbl.remove shadow) victims
    | Dyn.Repaired { id; tree; _ } -> Hashtbl.replace shadow id tree
    | Dyn.Dropped _ -> ()
    | Dyn.Restored { id; tree } -> Hashtbl.replace shadow id tree);
    Tutil.check_conservation ~ctx:(describe (_t, h)) net fault
      (List.of_seq (Hashtbl.to_seq_values shadow))
  in
  let s =
    Dyn.run
      ~faults:(Dyn.make_faults ~controller:fault timeline)
      ~observe net Adm.Online_cp trace
  in
  Tutil.check_conservation ~ctx:"final" net fault
    (List.of_seq (Hashtbl.to_seq_values shadow));
  if s.Dyn.admitted + s.Dyn.rejected <> s.Dyn.arrivals then
    QCheck.Test.fail_reportf "admitted + rejected <> arrivals";
  if s.Dyn.evicted <> s.Dyn.repaired + s.Dyn.dropped then
    QCheck.Test.fail_reportf "every eviction must repair or drop";
  if s.Dyn.restored > s.Dyn.dropped then
    QCheck.Test.fail_reportf "restored %d > dropped %d" s.Dyn.restored
      s.Dyn.dropped;
  (match deltas rep0 (repair_counters ()) with
  | a :: tiers when a <> List.fold_left ( + ) 0 tiers ->
    QCheck.Test.fail_reportf "repair tier counters do not sum to attempted"
  | _ -> ());
  (match deltas res0 (restoration_counters ()) with
  | [ att; ok; fail ] when att <> ok + fail ->
    QCheck.Test.fail_reportf
      "restoration.attempted <> restored + failed (%d <> %d + %d)" att ok fail
  | _ -> ());
  true

(* ---- strikes against a live map rebuilt from the stream -----------------
   [Dynamic.run] hands [Fault.inject] only the struck resource's holders,
   read from an index it keeps beside its live set. The oracle here is
   the whole live set, rebuilt from the [happened] stream alone: a down
   event on a healthy resource evicts exactly its holders in ascending
   id order, a degradation evicts an ascending subset of them, and a
   heal evicts nobody. Timelines mix every event kind with SRLG cuts. *)

let holds_positive pairs r =
  List.exists (fun (r', amt) -> r' = r && amt > 0.0) pairs

let strike_oracle_property (seed, restore) =
  let net, rng = Tutil.random_network seed ~lo:8 ~hi:16 in
  let trace = Dyn.poisson_trace rng net ~rate:3.0 ~mean_holding:8.0 ~count:30 in
  let horizon =
    List.fold_left (fun acc a -> Float.max acc a.Dyn.at) 1.0 trace *. 1.25
  in
  let slots = int_of_float (Float.round horizon) in
  let independent =
    Fault.random_timeline ~heal_after:(max 1 (slots / 4)) ~rng ~slots
      ~events:10 net
  in
  let cuts =
    Fault.srlg_timeline ~heal_after:(horizon /. 5.0) ~rng ~horizon ~events:3
      (Fault.srlg_partition ~groups:3 ~rng net)
  in
  let timeline =
    List.stable_sort
      (fun (a : Fault.stamped) b -> compare a.Fault.at b.Fault.at)
      (independent @ cuts)
  in
  let shadow : (int, Pt.t) Hashtbl.t = Hashtbl.create 16 in
  let links_down = Hashtbl.create 8 and servers_down = Hashtbl.create 8 in
  let holders_of pred =
    Hashtbl.fold
      (fun id tree acc -> if pred (Pt.allocation tree) then id :: acc else acc)
      shadow []
    |> List.sort compare
  in
  let link_holders e = holders_of (fun a -> holds_positive a.N.links e) in
  let server_holders v = holders_of (fun a -> holds_positive a.N.nodes v) in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  let fail ctx what holders =
    QCheck.Test.fail_reportf "%s: %s (holders [%s])" ctx what
      (String.concat ";" (List.map string_of_int holders))
  in
  let down tbl r ~expected ~victims ctx =
    let expected = if Hashtbl.mem tbl r then [] else expected in
    Hashtbl.replace tbl r ();
    if victims <> expected then fail ctx "victims <> holders" expected
  in
  let degrade ~holders ~victims ctx =
    if not (ascending victims && List.for_all (fun v -> List.mem v holders) victims)
    then fail ctx "victims not an ascending subset of the holders" holders
  in
  let strikes = ref 0 in
  let observe t h =
    let ctx = describe (t, h) in
    match h with
    | Dyn.Arrived { id; tree = Some tree }
    | Dyn.Repaired { id; tree; _ }
    | Dyn.Restored { id; tree } ->
      Hashtbl.replace shadow id tree
    | Dyn.Arrived { tree = None; _ } | Dyn.Dropped _ -> ()
    | Dyn.Departed { id; _ } -> Hashtbl.remove shadow id
    | Dyn.Fault_fired { event; victims } ->
      incr strikes;
      (match event with
      | Fault.Link_down e ->
        down links_down e ~expected:(link_holders e) ~victims ctx
      | Fault.Server_down v ->
        down servers_down v ~expected:(server_holders v) ~victims ctx
      | Fault.Degrade_link (e, _) ->
        degrade ~holders:(link_holders e) ~victims ctx
      | Fault.Degrade_server (v, _) ->
        degrade ~holders:(server_holders v) ~victims ctx
      | Fault.Link_up e ->
        Hashtbl.remove links_down e;
        if victims <> [] then fail ctx "a heal evicted" []
      | Fault.Server_up v ->
        Hashtbl.remove servers_down v;
        if victims <> [] then fail ctx "a heal evicted" []);
      List.iter (Hashtbl.remove shadow) victims
  in
  let restore = if restore then Some Nfv_multicast.Restore.default else None in
  ignore
    (Dyn.run ~faults:(Dyn.make_faults ~restore timeline) ~observe net
       Adm.Online_cp trace);
  !strikes = List.length timeline

let () =
  Alcotest.run "dynamic_churn"
    [
      ( "designed",
        [
          Alcotest.test_case "the designed trace, event for event" `Quick
            test_designed_trace;
          Alcotest.test_case "dropped session departure is a no-op" `Quick
            test_dropped_session_departure_is_noop;
          Alcotest.test_case "bad strike targets reach inject" `Quick
            test_bad_strike_targets;
          Alcotest.test_case "inject rejects bad ids and fractions" `Quick
            test_inject_rejects_bad_events;
          Alcotest.test_case "rejected events are not counted" `Quick
            test_rejected_events_not_counted;
          Alcotest.test_case "restoration order is id-sorted under ties" `Quick
            test_restoration_order_on_ties;
          Alcotest.test_case "SRLG partition on GEANT coordinates" `Quick
            test_srlg_partition_geant;
          Alcotest.test_case "SRLG partition edge cases" `Quick
            test_srlg_partition_edge_cases;
          Alcotest.test_case "random timeline degrades by half" `Quick
            test_random_timeline_degrades_by_half;
          Alcotest.test_case "SRLG timeline shape" `Quick
            test_srlg_timeline_shape;
        ] );
      ( "regression",
        [
          Alcotest.test_case "fault-free runs match the pre-fault simulator"
            `Quick test_fault_free_regression;
          Alcotest.test_case "reset:false keeps caller state" `Quick
            test_reset_false_keeps_caller_state;
          Alcotest.test_case "SRLG runs pinned under every algorithm" `Quick
            test_srlg_run_per_algorithm;
        ] );
      ( "property",
        [
          Tutil.qtest ~count:25
            "capacity is conserved after every merged event"
            QCheck.small_nat conservation_property;
          Tutil.qtest ~count:40 "strikes evict exactly the holders"
            QCheck.(pair small_nat bool)
            strike_oracle_property;
        ] );
    ]
