module Cp = Nfv_multicast.Online_cp
module Sp = Nfv_multicast.Online_sp
module Adm = Nfv_multicast.Admission
module Pt = Nfv_multicast.Pseudo_tree
module W = Nfv_multicast.Sp_window
module N = Sdn.Network
module Rng = Topology.Rng
module Obs = Nfv_obs.Obs

let mk_net seed =
  let rng = Rng.create seed in
  let topo = Topology.Waxman.generate ~alpha:0.4 ~beta:0.3 rng ~n:30 in
  let net = N.make_random_servers ~fraction:0.2 ~rng topo in
  (net, rng)

(* --- Online_CP unit behaviour --- *)

let test_default_params () =
  let net, _ = mk_net 1 in
  let p = Cp.default_params net in
  Alcotest.check Tutil.check_float "alpha = 2|V|" 60.0 p.Cp.alpha;
  Alcotest.check Tutil.check_float "sigma = |V|-1" 29.0 p.Cp.sigma_v

let test_admit_on_idle_network () =
  let net, rng = mk_net 2 in
  let req = Workload.Gen.request rng net ~id:0 in
  match Cp.admit (Tutil.cp_pricing net) req with
  | Cp.Rejected r -> Alcotest.failf "idle network rejects: %s" (Cp.rejection_to_string r)
  | Cp.Admitted a -> (
    Alcotest.(check bool) "server placed" true (N.is_server net a.Cp.server);
    match Pt.validate net a.Cp.tree with
    | Ok () -> ()
    | Error e -> Alcotest.failf "invalid tree: %s" e)

let test_rejects_when_servers_full () =
  let net, rng = mk_net 3 in
  (* drain all servers *)
  List.iter
    (fun v ->
      match N.allocate net { N.links = []; nodes = [ (v, N.server_residual net v) ] } with
      | Ok () -> ()
      | Error e -> Alcotest.failf "drain: %s" e)
    (N.servers net);
  let req = Workload.Gen.request rng net ~id:0 in
  match Cp.admit (Tutil.cp_pricing net) req with
  | Cp.Rejected Cp.No_feasible_server -> ()
  | Cp.Rejected r -> Alcotest.failf "wrong reason: %s" (Cp.rejection_to_string r)
  | Cp.Admitted _ -> Alcotest.fail "should reject"

let test_threshold_rejection () =
  let net, rng = mk_net 4 in
  let req = Workload.Gen.request rng net ~id:0 in
  (* absurdly low thresholds force Case 3 *)
  let p = Cp.default_params net in
  let p = { p with Cp.sigma_v = -1.0; sigma_e = -1.0 } in
  match Cp.admit (Tutil.cp_pricing ~params:p net) req with
  | Cp.Rejected Cp.Over_threshold -> ()
  | Cp.Rejected r -> Alcotest.failf "wrong reason: %s" (Cp.rejection_to_string r)
  | Cp.Admitted _ -> Alcotest.fail "should reject"

let test_linear_mode_ignores_thresholds () =
  let net, rng = mk_net 5 in
  let req = Workload.Gen.request rng net ~id:0 in
  let p = Cp.default_params net in
  let p = { p with Cp.sigma_v = -1.0; sigma_e = -1.0 } in
  match Cp.admit (Tutil.cp_pricing ~mode:`Linear ~params:p net) req with
  | Cp.Admitted _ -> ()
  | Cp.Rejected r -> Alcotest.failf "linear mode: %s" (Cp.rejection_to_string r)

let test_admission_consumes_resources () =
  let net, rng = mk_net 6 in
  let req = Workload.Gen.request rng net ~id:0 in
  let before = List.map (fun v -> N.server_residual net v) (N.servers net) in
  match Cp.admit (Tutil.cp_pricing net) req with
  | Cp.Rejected _ -> Alcotest.fail "should admit on idle network"
  | Cp.Admitted a ->
    let after = List.map (fun v -> N.server_residual net v) (N.servers net) in
    let drained =
      List.exists2 (fun b a -> b -. a > 1e-9) before after
    in
    Alcotest.(check bool) "some server drained" true drained;
    let demand = Sdn.Request.demand_mhz req in
    Tutil.assert_close "drained by demand"
      (N.server_capacity net a.Cp.server -. demand)
      (N.server_residual net a.Cp.server)

(* --- rejection attribution (designed topologies) --- *)

let straw_capacity = 0.5 (* far below any request bandwidth *)

(* s=0 — d=1 over a wide link; the only server (2) sits behind a starved
   link. Destinations are reachable, servers are not: this used to be
   misreported as plain [Unreachable]. *)
let server_behind_straw () =
  let g = Mcgraph.Graph.of_edges ~n:3 [ (0, 1); (0, 2) ] in
  let topo = Topology.Topo.make ~name:"server-behind-straw" g in
  N.make_explicit ~topology:topo
    ~servers:[ (2, 8_000.0, 0.01) ]
    ~link_capacities:[| 1_000.0; straw_capacity |]
    ~link_unit_costs:[| 1.0; 1.0 |]
    ()

let test_server_unreachable_attribution () =
  let net = server_behind_straw () in
  let req =
    Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 1 ] ~bandwidth:10.0
      ~chain:[ Sdn.Vnf.Nat ]
  in
  Obs.reset_all ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) @@ fun () ->
  (match Cp.admit (Tutil.cp_pricing net) req with
  | Cp.Rejected Cp.Server_unreachable -> ()
  | Cp.Rejected r -> Alcotest.failf "wrong reason: %s" (Cp.rejection_to_string r)
  | Cp.Admitted _ -> Alcotest.fail "should reject");
  Alcotest.(check int) "attributed to server_unreachable" 1
    (Obs.Counter.value (Obs.Counter.make "online_cp.rejected.server_unreachable"));
  Alcotest.(check int) "not to unreachable" 0
    (Obs.Counter.value (Obs.Counter.make "online_cp.rejected.unreachable"));
  (* a request the straw can carry is admitted — the server is only
     unreachable at the larger bandwidth *)
  let small =
    Sdn.Request.make ~id:1 ~source:0 ~destinations:[ 1 ]
      ~bandwidth:(straw_capacity /. 4.0) ~chain:[ Sdn.Vnf.Nat ]
  in
  match Cp.admit (Tutil.cp_pricing net) small with
  | Cp.Admitted _ -> ()
  | Cp.Rejected r -> Alcotest.failf "small request: %s" (Cp.rejection_to_string r)

(* Two equal-cost routes 0→4: A = 0-3-4 (2 hops, 1.25 + 0.75) and
   B = 0-1-2-4 (3 hops, 0.5 + 0.5 + 1.0). Without the hop epsilon,
   Dijkstra from 0 settles node 4 through B first and never replaces an
   equal-cost parent; the epsilon must break the tie toward the 2-hop
   route in [`Linear] mode exactly as it always did in [`Exponential]. *)
let test_linear_mode_hop_tiebreak () =
  let g = Mcgraph.Graph.of_edges ~n:5 [ (0, 3); (3, 4); (0, 1); (1, 2); (2, 4) ] in
  let topo = Topology.Topo.make ~name:"hop-tie" g in
  let net =
    N.make_explicit ~topology:topo
      ~servers:[ (4, 8_000.0, 0.01) ]
      ~link_capacities:(Array.make 5 1_000.0)
      ~link_unit_costs:[| 1.25; 0.75; 0.5; 0.5; 1.0 |]
      ()
  in
  let req =
    Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 4 ] ~bandwidth:1.0
      ~chain:[ Sdn.Vnf.Nat ]
  in
  match Cp.admit (Tutil.cp_pricing ~mode:`Linear net) req with
  | Cp.Rejected r -> Alcotest.failf "should admit: %s" (Cp.rejection_to_string r)
  | Cp.Admitted a ->
    Alcotest.(check (list (pair int int)))
      "tie broken toward the 2-hop route"
      [ (0, 1); (1, 1) ]
      (List.sort compare a.Cp.tree.Pt.edge_uses)

(* --- SP --- *)

let test_sp_admits_idle () =
  let net, rng = mk_net 7 in
  let req = Workload.Gen.request rng net ~id:0 in
  match Sp.admit (W.create net) req with
  | Sp.Rejected msg -> Alcotest.failf "idle network: %s" msg
  | Sp.Admitted a -> (
    Alcotest.(check bool) "hops positive" true (a.Sp.hops >= 1);
    match Pt.validate net a.Sp.tree with
    | Ok () -> ()
    | Error e -> Alcotest.failf "invalid tree: %s" e)

let test_sp_rejects_when_starved () =
  let net, rng = mk_net 8 in
  (* drain every link below any possible demand *)
  for e = 0 to N.m net - 1 do
    match
      N.allocate net { N.links = [ (e, N.link_residual net e -. 1.0) ]; nodes = [] }
    with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "drain: %s" msg
  done;
  let req = Workload.Gen.request rng net ~id:0 in
  match Sp.admit (W.create net) req with
  | Sp.Rejected _ -> ()
  | Sp.Admitted _ -> Alcotest.fail "should reject"

(* --- admission driver --- *)

let test_run_stats_consistent () =
  let net, rng = mk_net 9 in
  let reqs = Workload.Gen.sequence rng net ~count:40 in
  let stats = Adm.run net Adm.Online_cp reqs in
  Alcotest.(check int) "total" 40 stats.Adm.total;
  Alcotest.(check int) "partition" 40 (stats.Adm.admitted + stats.Adm.rejected);
  Alcotest.(check int) "records" 40 (List.length stats.Adm.records);
  Alcotest.(check bool) "ratio in range" true
    (stats.Adm.acceptance_ratio >= 0.0 && stats.Adm.acceptance_ratio <= 1.0);
  Alcotest.(check int) "admitted_after total" stats.Adm.admitted
    (Adm.admitted_after stats 40)

let test_run_resets () =
  let net, rng = mk_net 10 in
  let reqs = Workload.Gen.sequence rng net ~count:30 in
  let s1 = Adm.run net Adm.Sp reqs in
  let s2 = Adm.run net Adm.Sp reqs in
  Alcotest.(check int) "deterministic replay" s1.Adm.admitted s2.Adm.admitted

let test_prefix_property () =
  (* the first n decisions of a run equal a run on the prefix *)
  let net, rng = mk_net 11 in
  let reqs = Workload.Gen.sequence rng net ~count:30 in
  let full = Adm.run net Adm.Online_cp reqs in
  let prefix =
    Adm.run net Adm.Online_cp
      (List.filteri (fun i _ -> i < 15) reqs)
  in
  Alcotest.(check int) "prefix equivalence" prefix.Adm.admitted
    (Adm.admitted_after full 15)

let test_algorithm_names () =
  Alcotest.(check string) "cp" "Online_CP" (Adm.algorithm_to_string Adm.Online_cp);
  Alcotest.(check string) "nosigma" "Online_CP_noSigma"
    (Adm.algorithm_to_string Adm.Online_cp_no_threshold);
  Alcotest.(check string) "linear" "Online_Linear"
    (Adm.algorithm_to_string Adm.Online_linear);
  Alcotest.(check string) "sp" "SP" (Adm.algorithm_to_string Adm.Sp)

(* --- randomized properties --- *)

let prop_capacity_invariant =
  Tutil.qtest ~count:40 "no algorithm ever exceeds capacities"
    QCheck.(pair (int_bound 10_000) (int_bound 3))
    (fun (seed, algo_idx) ->
      let algo =
        [| Adm.Online_cp; Adm.Online_cp_no_threshold; Adm.Online_linear; Adm.Sp |].(algo_idx)
      in
      let net, rng = mk_net (seed + 100) in
      let reqs = Workload.Gen.sequence rng net ~count:60 in
      ignore (Adm.run net algo reqs);
      let ok = ref true in
      for e = 0 to N.m net - 1 do
        if N.link_residual net e < -1e-6 then ok := false;
        if N.link_residual net e > N.link_capacity net e +. 1e-6 then ok := false
      done;
      List.iter
        (fun v ->
          if N.server_residual net v < -1e-6 then ok := false)
        (N.servers net);
      !ok)

let prop_admitted_trees_valid =
  Tutil.qtest ~count:30 "every admitted CP tree validates"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net, rng = mk_net (seed + 500) in
      let reqs = Workload.Gen.sequence rng net ~count:40 in
      N.reset net;
      List.for_all
        (fun r ->
          match Cp.admit (Tutil.cp_pricing net) r with
          | Cp.Admitted a -> (
            match Pt.validate net a.Cp.tree with Ok () -> true | Error _ -> false)
          | Cp.Rejected _ -> true)
        reqs)

let prop_sp_trees_valid =
  Tutil.qtest ~count:30 "every admitted SP tree validates"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net, rng = mk_net (seed + 900) in
      let reqs = Workload.Gen.sequence rng net ~count:40 in
      N.reset net;
      List.for_all
        (fun r ->
          match Sp.admit (W.create net) r with
          | Sp.Admitted a -> (
            match Pt.validate net a.Sp.tree with Ok () -> true | Error _ -> false)
          | Sp.Rejected _ -> true)
        reqs)

(* --- pruning and window exactness --- *)

(* outcome fingerprints: enough to detect any divergence in decision,
   placement or score without comparing whole trees *)
let cp_fingerprint = function
  | Cp.Admitted a ->
    Printf.sprintf "A server=%d lca=%d score=%.17g uses=%s" a.Cp.server
      a.Cp.lca a.Cp.score
      (String.concat ","
         (List.map
            (fun (e, u) -> Printf.sprintf "%d:%d" e u)
            (List.sort compare a.Cp.tree.Pt.edge_uses)))
  | Cp.Rejected r -> "R " ^ Cp.rejection_to_string r

let net_state net =
  ( Array.init (N.m net) (N.link_residual net),
    List.map (N.server_residual net) (N.servers net) )

(* pruning + window sharing must be invisible: same decisions, same
   scores, same residual trajectories as the naive per-request engines *)
let prop_prune_and_window_exact =
  Tutil.qtest ~count:25 "pruned windowed run = naive run, bit for bit"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net1, rng1 = mk_net (seed + 1700) in
      let net2, rng2 = mk_net (seed + 1700) in
      let reqs1 = Workload.Gen.sequence rng1 net1 ~count:40 in
      let reqs2 = Workload.Gen.sequence rng2 net2 ~count:40 in
      let shared = Tutil.cp_pricing net1 in
      let fast =
        List.map (fun r -> cp_fingerprint (Cp.admit ~prune:true shared r)) reqs1
      in
      let naive =
        List.map
          (fun r -> cp_fingerprint (Cp.admit ~prune:false (Tutil.cp_pricing net2) r))
          reqs2
      in
      fast = naive && net_state net1 = net_state net2)

let sp_fingerprint = function
  | Sp.Admitted a ->
    Printf.sprintf "A hops=%d uses=%s" a.Sp.hops
      (String.concat ","
         (List.map
            (fun (e, u) -> Printf.sprintf "%d:%d" e u)
            (List.sort compare a.Sp.tree.Pt.edge_uses)))
  | Sp.Rejected msg -> "R " ^ msg

let prop_sp_window_exact =
  Tutil.qtest ~count:25 "SP window sharing changes nothing"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net1, rng1 = mk_net (seed + 2100) in
      let net2, rng2 = mk_net (seed + 2100) in
      let reqs1 = Workload.Gen.sequence rng1 net1 ~count:40 in
      let reqs2 = Workload.Gen.sequence rng2 net2 ~count:40 in
      let w = W.create net1 in
      let windowed = List.map (fun r -> sp_fingerprint (Sp.admit w r)) reqs1 in
      let naive =
        List.map (fun r -> sp_fingerprint (Sp.admit (W.create net2) r)) reqs2
      in
      windowed = naive && net_state net1 = net_state net2)

(* the speed-up must actually materialise: under load, the driver's
   shared window serves some admits from cache and the pruner skips
   some candidate servers outright *)
let test_window_and_pruning_telemetry () =
  let net, rng = mk_net 12 in
  let reqs = Workload.Gen.sequence rng net ~count:80 in
  Obs.reset_all ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) @@ fun () ->
  ignore (Adm.run net Adm.Online_cp reqs);
  let v name = Obs.Counter.value (Obs.Counter.make name) in
  Alcotest.(check bool) "servers were pruned" true
    (v "online_cp.pruned.servers" > 0);
  Alcotest.(check bool) "window engines were reused" true
    (v "sp_window.engine_reuses" > 0);
  Alcotest.(check bool) "engine cache served hits" true
    (v "sp_engine.cache_hits" > 0)

(* --- proved rejections (tripod bound, component labels) --- *)

let counter name = Obs.Counter.value (Obs.Counter.make name)

let with_obs f =
  Obs.reset_all ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

(* A thin, sparse substrate: a random spanning tree plus a few chords,
   links carrying one to four requests, servers that never run out. Links
   saturate within a run and cut the graph apart, and a drawn edge
   threshold (down to 2 % of |V| - 1) puts many trees near sigma_e. *)
let thin_case seed =
  let rng = Rng.create (seed + 4100) in
  let n = Rng.int_range rng 10 24 in
  let g = Mcgraph.Graph.create n in
  for v = 1 to n - 1 do
    ignore (Mcgraph.Graph.add_edge g v (Rng.int rng v))
  done;
  for _ = 1 to Rng.int rng (n / 3) do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Mcgraph.Graph.mem_edge g u v) then
      ignore (Mcgraph.Graph.add_edge g u v)
  done;
  let profile =
    {
      N.default_profile with
      link_capacity = (150.0, 700.0);
      server_capacity = (1e6, 1e6);
    }
  in
  let net =
    N.make_random_servers ~profile ~fraction:0.25 ~rng
      (Topology.Topo.make ~name:"thin" g)
  in
  let p = Cp.default_params net in
  let params = { p with Cp.sigma_e = p.Cp.sigma_e *. Rng.float_range rng 0.02 1.0 } in
  let reqs = Workload.Gen.sequence rng net ~count:60 in
  (net, params, reqs)

let thin_run ~windowed seed =
  let net, params, reqs = thin_case seed in
  let admit =
    if windowed then Cp.admit ~prune:true (Tutil.cp_pricing ~params net)
    else fun r -> Cp.admit ~prune:false (Tutil.cp_pricing ~params net) r
  in
  let outcomes = List.map (fun r -> cp_fingerprint (admit r)) reqs in
  (outcomes, net_state net)

let prop_proved_rejections_exact =
  Tutil.qtest ~count:40 "proved rejections = naive run, bit for bit"
    QCheck.(int_bound 10_000)
    (fun seed -> thin_run ~windowed:true seed = thin_run ~windowed:false seed)

(* the property above must exercise both proofs, not just pass *)
let test_proved_rejections_fire () =
  with_obs @@ fun () ->
  for seed = 0 to 19 do
    ignore (thin_run ~windowed:true seed)
  done;
  Alcotest.(check bool) "tripod bound skipped servers" true
    (counter "online_cp.pruned.over_threshold" > 0);
  Alcotest.(check bool) "labels proved requests unreachable" true
    (counter "online_cp.pruned.unreachable" > 0)

(* The path 2 - 1 - 0 - 3 - 4 with servers 2 and 3, every link idle so
   each weighs the hop epsilon h. From s = 0 to d = 4, server 2's tripod
   bound is (2h + 4h + 2h) / 2 = 4h while d(s, 2) and d(s, 4) are only
   2h; server 3's tree weighs 2h. *)
let fork_net () =
  let g = Mcgraph.Graph.of_edges ~n:5 [ (0, 1); (1, 2); (0, 3); (3, 4) ] in
  N.make_explicit ~topology:(Topology.Topo.make ~name:"fork" g)
    ~servers:[ (2, 8_000.0, 0.01); (3, 8_000.0, 0.01) ]
    ~link_capacities:(Array.make 4 1_000.0)
    ~link_unit_costs:(Array.make 4 1.0)
    ()

let fork_request =
  Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 4 ] ~bandwidth:10.0
    ~chain:[ Sdn.Vnf.Nat ]

let h = 1e-6 (* Online_cp's hop epsilon: the weight of an idle link *)

let test_tripod_skips_server () =
  let params = { (Cp.default_params (fork_net ())) with Cp.sigma_e = 3.5 *. h } in
  let naive =
    cp_fingerprint
      (Cp.admit ~prune:false (Tutil.cp_pricing ~params (fork_net ())) fork_request)
  in
  with_obs @@ fun () ->
  let outcome = Cp.admit (Tutil.cp_pricing ~params (fork_net ())) fork_request in
  (match outcome with
  | Cp.Admitted a -> Alcotest.(check int) "server 3 (tree 2h)" 3 a.Cp.server
  | Cp.Rejected r -> Alcotest.failf "rejected: %s" (Cp.rejection_to_string r));
  Alcotest.(check string) "same as naive" naive (cp_fingerprint outcome);
  Alcotest.(check int) "server 2 skipped" 1 (counter "online_cp.pruned.over_threshold")

let test_source_distance_rejects () =
  let params = { (Cp.default_params (fork_net ())) with Cp.sigma_e = 1.5 *. h } in
  let naive = Tutil.cp_pricing ~params (fork_net ()) in
  (match Cp.admit ~prune:false naive fork_request with
  | Cp.Rejected Cp.Over_threshold -> ()
  | o -> Alcotest.failf "naive: %s" (cp_fingerprint o));
  with_obs @@ fun () ->
  (match Cp.admit (Tutil.cp_pricing ~params (fork_net ())) fork_request with
  | Cp.Rejected Cp.Over_threshold -> ()
  | o -> Alcotest.failf "pruned: %s" (cp_fingerprint o));
  Alcotest.(check int) "both servers skipped" 2
    (counter "online_cp.pruned.over_threshold");
  Alcotest.(check int) "only the source Dijkstra" 1 (counter "online_cp.dijkstras")

(* 0 - 1 - 2 - 3 with the server at 1 and a straw on 2 - 3: 3 is cut off
   at bandwidth 10 *)
let test_labels_prove_unreachable () =
  let net () =
    let g = Mcgraph.Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
    N.make_explicit ~topology:(Topology.Topo.make ~name:"cut" g)
      ~servers:[ (1, 8_000.0, 0.01) ]
      ~link_capacities:[| 1_000.0; 1_000.0; straw_capacity |]
      ~link_unit_costs:(Array.make 3 1.0)
      ()
  in
  let req =
    Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 2; 3 ] ~bandwidth:10.0
      ~chain:[ Sdn.Vnf.Nat ]
  in
  (match Cp.admit ~prune:false (Tutil.cp_pricing (net ())) req with
  | Cp.Rejected Cp.Unreachable -> ()
  | o -> Alcotest.failf "naive: %s" (cp_fingerprint o));
  with_obs @@ fun () ->
  (match Cp.admit (Tutil.cp_pricing (net ())) req with
  | Cp.Rejected Cp.Unreachable -> ()
  | o -> Alcotest.failf "pruned: %s" (cp_fingerprint o));
  Alcotest.(check int) "proved by the labels" 1
    (counter "online_cp.pruned.unreachable");
  Alcotest.(check int) "no Dijkstra" 0 (counter "online_cp.dijkstras");
  Alcotest.(check int) "still counted as unreachable" 1
    (counter "online_cp.rejected.unreachable")

let prop_cp_score_nonnegative =
  Tutil.qtest ~count:30 "admitted scores are non-negative"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net, rng = mk_net (seed + 1300) in
      let reqs = Workload.Gen.sequence rng net ~count:30 in
      N.reset net;
      List.for_all
        (fun r ->
          match Cp.admit (Tutil.cp_pricing net) r with
          | Cp.Admitted a -> a.Cp.score >= 0.0
          | Cp.Rejected _ -> true)
        reqs)

(* a window over another network — even an identical twin — would price
   and allocate on that network while the pricing reads this one's
   params and avail check, so the context refuses it *)
let test_pricing_refuses_foreign_window () =
  let net, rng = mk_net 13 in
  let twin, _ = mk_net 13 in
  let req = Workload.Gen.request rng net ~id:0 in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun algo ->
      Alcotest.(check bool)
        ("foreign window refused under " ^ Adm.algorithm_to_string algo)
        true
        (raises (fun () -> Adm.pricing ~window:(W.create twin) net algo)))
    [ Adm.Online_cp; Adm.Online_cp_no_threshold; Adm.Online_linear; Adm.Sp ];
  Alcotest.(check bool) "admit_tree refuses it" true
    (raises (fun () ->
         Adm.admit_tree ~window:(W.create twin) net Adm.Online_cp req));
  Alcotest.(check bool) "nothing allocated on the twin" true
    (net_state twin = net_state net);
  Alcotest.(check bool) "own window accepted" false
    (raises (fun () -> Adm.pricing ~window:(W.create net) net Adm.Online_cp))

(* ---- the window's link-price tables ---- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Several pricings share one window, hence its price tables: both
   modes, two β values and a surcharged view over the first β. After
   every random allocate (an admit), release, reset, link fault or heal,
   each engine's weight vector, read at two bandwidths, equals the price
   formula evaluated afresh on the current residuals, bit for bit. *)
let prop_price_tables_exact =
  Tutil.qtest ~count:40 "engine weights = fresh link prices, bit for bit"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let net, rng = mk_net (seed + 3600) in
      let m = N.m net in
      let window = W.create net in
      let params = Cp.default_params net in
      let steep = { params with Cp.beta = params.Cp.beta *. 1.5 } in
      let groups =
        Array.init 3 (fun r -> List.filter (fun e -> e mod 3 = r) (List.init m Fun.id))
      in
      let av = Cp.make_avail ~alpha:0.5 net groups in
      let pricings =
        [
          (Cp.pricing ~mode:`Exponential ~params window, params, None);
          (Cp.pricing ~mode:`Exponential ~params:steep window, steep, None);
          (Cp.pricing ~mode:`Linear ~params window, params, None);
          (Cp.pricing ~avail:av ~mode:`Exponential ~params window, params, Some av);
        ]
      in
      let fresh (p : Cp.pricing) (params : Cp.params) av b e =
        if not (N.link_admits net e b) then infinity
        else
          let base =
            match p.Cp.mode with
            | `Exponential ->
              Nfv_multicast.Cost_model.link_weight net ~base:params.Cp.beta e +. h
            | `Linear -> Nfv_multicast.Cost_model.linear_link_weight net e +. h
          in
          match av with
          | None -> base
          | Some av ->
            let gi = Cp.avail_group_of av e in
            base +. (Cp.avail_alpha av *. Cp.exposure av net gi)
      in
      let exact () =
        List.for_all
          (fun (p, params, av) ->
            List.for_all
              (fun b ->
                let w = Mcgraph.Sp_engine.weights (Cp.engine p ~bandwidth:b) in
                let ok = ref true in
                for e = 0 to m - 1 do
                  if not (same_bits w.(e) (fresh p params av b e)) then ok := false
                done;
                !ok)
              [ 1.0; 60.0 +. Rng.float_range rng 0.0 200.0 ])
          pricings
      in
      let faults = ref (Sdn.Fault.create net) in
      let live = ref [] and next_id = ref 0 in
      let ok = ref (exact ()) in
      for _ = 1 to 60 do
        (match Rng.int rng 6 with
        | 0 | 1 -> (
          let p, _, _ = List.nth pricings (Rng.int rng (List.length pricings)) in
          let r = Tutil.random_request rng net ~id:!next_id in
          match Cp.admit p r with
          | Cp.Admitted a ->
            live := (!next_id, Pt.allocation a.Cp.tree) :: !live;
            incr next_id
          | Cp.Rejected _ -> ())
        | 2 -> (
          match !live with
          | (_, alloc) :: rest ->
            N.release net alloc;
            live := rest
          | [] -> ())
        | 3 ->
          N.reset net;
          live := [];
          faults := Sdn.Fault.create net
        | 4 ->
          let victims =
            Sdn.Fault.inject !faults ~live:!live (Sdn.Fault.Link_down (Rng.int rng m))
          in
          live := List.filter (fun (id, _) -> not (List.mem id victims)) !live
        | _ -> ignore (Sdn.Fault.inject !faults ~live:[] (Sdn.Fault.Link_up (Rng.int rng m))));
        ok := !ok && exact ()
      done;
      !ok)

let () =
  Alcotest.run "online"
    [
      ( "online_cp",
        [
          Alcotest.test_case "default params" `Quick test_default_params;
          Alcotest.test_case "admits on idle network" `Quick test_admit_on_idle_network;
          Alcotest.test_case "rejects when servers full" `Quick
            test_rejects_when_servers_full;
          Alcotest.test_case "threshold rejection" `Quick test_threshold_rejection;
          Alcotest.test_case "linear mode skips thresholds" `Quick
            test_linear_mode_ignores_thresholds;
          Alcotest.test_case "admission consumes resources" `Quick
            test_admission_consumes_resources;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "server unreachable is distinguished" `Quick
            test_server_unreachable_attribution;
          Alcotest.test_case "linear mode breaks ties by hops" `Quick
            test_linear_mode_hop_tiebreak;
        ] );
      ( "sp",
        [
          Alcotest.test_case "admits idle" `Quick test_sp_admits_idle;
          Alcotest.test_case "rejects starved" `Quick test_sp_rejects_when_starved;
        ] );
      ( "driver",
        [
          Alcotest.test_case "stats consistent" `Quick test_run_stats_consistent;
          Alcotest.test_case "reset + determinism" `Quick test_run_resets;
          Alcotest.test_case "prefix property" `Quick test_prefix_property;
          Alcotest.test_case "names" `Quick test_algorithm_names;
          Alcotest.test_case "foreign window refused" `Quick
            test_pricing_refuses_foreign_window;
        ] );
      ( "pruning",
        [
          prop_prune_and_window_exact;
          prop_price_tables_exact;
          prop_sp_window_exact;
          Alcotest.test_case "window and pruning telemetry" `Quick
            test_window_and_pruning_telemetry;
        ] );
      ( "proofs",
        [
          prop_proved_rejections_exact;
          Alcotest.test_case "both proofs fire" `Quick test_proved_rejections_fire;
          Alcotest.test_case "tripod bound skips a server" `Quick
            test_tripod_skips_server;
          Alcotest.test_case "source distance rejects" `Quick
            test_source_distance_rejects;
          Alcotest.test_case "labels prove unreachable" `Quick
            test_labels_prove_unreachable;
        ] );
      ( "property",
        [
          prop_capacity_invariant;
          prop_admitted_trees_valid;
          prop_sp_trees_valid;
          prop_cp_score_nonnegative;
        ] );
    ]
