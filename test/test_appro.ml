module A = Nfv_multicast.Appro_multi
module O = Nfv_multicast.One_server
module E = Oracle.Exact
module C = Nfv_multicast.Combinations
module Pt = Nfv_multicast.Pseudo_tree
module Ag = Nfv_multicast.Aux_graph
module N = Sdn.Network
module Rng = Topology.Rng
module Obs = Nfv_obs.Obs

let with_obs f =
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

let counter name = Obs.Counter.value (Obs.Counter.make name)

(* --- combinations --- *)

let test_choose () =
  Alcotest.(check int) "C(5,2)" 10 (C.choose 5 2);
  Alcotest.(check int) "C(5,0)" 1 (C.choose 5 0);
  Alcotest.(check int) "C(5,5)" 1 (C.choose 5 5);
  Alcotest.(check int) "C(5,6)" 0 (C.choose 5 6);
  Alcotest.(check int) "C(25,3)" 2300 (C.choose 25 3);
  Alcotest.(check int) "negative" 0 (C.choose 5 (-1))

let test_subsets () =
  let s = Oracle.Subsets.subsets_of_size [ 1; 2; 3; 4 ] 2 in
  Alcotest.(check int) "count" 6 (List.length s);
  Alcotest.(check int) "distinct" 6 (List.length (List.sort_uniq compare s));
  List.iter (fun l -> Alcotest.(check int) "size" 2 (List.length l)) s

let test_subsets_up_to () =
  let s = Oracle.Subsets.subsets_up_to [ 1; 2; 3 ] 2 in
  Alcotest.(check int) "count" 6 (List.length s);
  Alcotest.(check int) "count_up_to formula" 6 (C.count_up_to 3 2);
  Alcotest.(check int) "paper fig4 example" 6 (C.count_up_to 3 2)

let test_iter_subsets () =
  let collected = ref [] in
  C.iter_subsets_up_to [ 1; 2; 3; 4 ] 3 (fun s -> collected := s :: !collected);
  Alcotest.(check int) "matches list version" (C.count_up_to 4 3)
    (List.length !collected);
  let as_sets = List.map (List.sort compare) !collected in
  Alcotest.(check int) "all distinct" (C.count_up_to 4 3)
    (List.length (List.sort_uniq compare as_sets));
  Alcotest.(check (list (list int))) "same subsets in the same order"
    (Oracle.Subsets.subsets_up_to [ 1; 2; 3; 4 ] 3) (List.rev !collected)

(* --- a hand-built instance where multi-server placement wins --- *)

(* Star: source 0 at center of two long arms; servers 5 and 6 sit next to
   the two destination clusters. A single server forces processed traffic
   to cross the center twice. *)
let two_cluster_net () =
  let rng = Rng.create 1 in
  (* 0 -1- 1 -2- 5 ; 0 -3- 3 -4- 6 ; dest 2 next to 5, dest 4 next to 6 *)
  let g =
    Mcgraph.Graph.of_edges ~n:7
      [ (0, 1); (1, 5); (5, 2); (0, 3); (3, 6); (6, 4) ]
  in
  let topo = Topology.Topo.make ~name:"two-cluster" g in
  N.make
    ~profile:(N.uniform_profile ~link_capacity:10_000.0 ~server_capacity:8_000.0)
    ~rng ~servers:[ 5; 6 ] topo

let two_cluster_request () =
  (* bandwidth high enough that an extra chain instance (25) is cheaper
     than re-crossing an arm twice (2·b): single server = 25 + 8b = 825,
     two servers = 50 + 6b = 650 *)
  Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 2; 4 ] ~bandwidth:100.0
    ~chain:[ Sdn.Vnf.Nat ]

let test_multi_server_wins () =
  let net = two_cluster_net () in
  let req = two_cluster_request () in
  match A.solve ~k:2 net req with
  | Error e -> Alcotest.failf "solve: %s" e
  | Ok res ->
    (* both servers used: unprocessed copies go down both arms, no
       crossing of the center by processed traffic *)
    Alcotest.(check (list int)) "two servers"
      [ 5; 6 ] res.A.tree.Pt.servers;
    Tutil.assert_close "cost" 650.0 res.A.cost;
    (match A.solve ~k:1 net req with
    | Error e -> Alcotest.failf "k=1: %s" e
    | Ok res1 ->
      Alcotest.(check bool) "k=2 beats k=1" true (res.A.cost < res1.A.cost))

let test_k_monotone () =
  let net = two_cluster_net () in
  let req = two_cluster_request () in
  let cost k =
    match A.solve ~k net req with
    | Ok r -> r.A.cost
    | Error e -> Alcotest.failf "k=%d: %s" k e
  in
  Alcotest.(check bool) "more K never hurts" true (cost 2 <= cost 1 +. 1e-9)

let test_no_server_error () =
  (* a network whose only server cannot host the chain *)
  let rng = Rng.create 1 in
  let g = Mcgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let topo = Topology.Topo.make ~name:"tiny" g in
  let net =
    N.make
      ~profile:(N.uniform_profile ~link_capacity:1000.0 ~server_capacity:10.0)
      ~rng ~servers:[ 1 ] topo
  in
  let req =
    Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 2 ] ~bandwidth:1.0
      ~chain:[ Sdn.Vnf.Ids ]
  in
  (match A.solve_capacitated net req with
  | Ok _ -> Alcotest.fail "should reject"
  | Error _ -> ());
  (* uncapacitated ignores computing capacity *)
  match A.solve net req with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "uncapacitated should work: %s" e

let test_capacitated_prunes_links () =
  let rng = Rng.create 1 in
  (* two routes 0→2: direct cheap edge and a detour; choke the direct edge *)
  let g = Mcgraph.Graph.of_edges ~n:4 [ (0, 2); (0, 1); (1, 2); (2, 3) ] in
  let topo = Topology.Topo.make ~name:"choke" g in
  let net =
    N.make
      ~profile:(N.uniform_profile ~link_capacity:100.0 ~server_capacity:8000.0)
      ~rng ~servers:[ 2 ] topo
  in
  (match N.allocate net { N.links = [ (0, 95.0) ]; nodes = [] } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup: %s" e);
  let req =
    Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:50.0
      ~chain:[ Sdn.Vnf.Nat ]
  in
  match A.solve_capacitated net req with
  | Error e -> Alcotest.failf "detour exists: %s" e
  | Ok res ->
    Alcotest.(check bool) "avoids choked edge" true
      (not (List.mem_assoc 0 res.A.tree.Pt.edge_uses))

let test_admit_allocates () =
  let net = two_cluster_net () in
  let req = two_cluster_request () in
  match A.admit ~k:2 net req with
  | Error e -> Alcotest.failf "admit: %s" e
  | Ok res ->
    List.iter
      (fun (e, uses) ->
        Tutil.assert_close "link drained"
          (N.link_capacity net e -. (float_of_int uses *. 100.0))
          (N.link_residual net e))
      res.A.tree.Pt.edge_uses;
    List.iter
      (fun v ->
        Tutil.assert_close "server drained" (N.server_capacity net v -. 25.0)
          (N.server_residual net v))
      res.A.tree.Pt.servers

let test_rejects_bad_k () =
  let net = two_cluster_net () in
  let req = two_cluster_request () in
  Alcotest.check_raises "k=0" (Invalid_argument "Appro_multi: K must be at least 1")
    (fun () -> ignore (A.solve ~k:0 net req))

(* a window over another network, even an identical twin, would serve
   that graph's trees, so every entry point refuses it *)
let test_refuses_foreign_window () =
  let net = two_cluster_net () and twin = two_cluster_net () in
  let req = two_cluster_request () in
  let foreign = Invalid_argument "Appro_multi: window over a different network" in
  let window = Nfv_multicast.Sp_window.create twin in
  Alcotest.check_raises "solve" foreign (fun () ->
      ignore (A.solve ~window net req));
  Alcotest.check_raises "solve_capacitated" foreign (fun () ->
      ignore (A.solve_capacitated ~window net req));
  Alcotest.check_raises "admit" foreign (fun () ->
      ignore (A.admit ~window net req));
  let own = Nfv_multicast.Sp_window.create net in
  Alcotest.(check bool) "own window accepted" true
    (Result.is_ok (A.solve ~window:own net req))

(* --- randomized properties --- *)

let small_instance seed =
  let net, rng = Tutil.random_network seed ~lo:6 ~hi:16 in
  (* keep |D| small so Dreyfus–Wagner stays cheap *)
  let nn = N.n net in
  let source = Rng.int rng nn in
  let count = 1 + Rng.int rng (min 4 (nn - 1)) in
  let picks = Rng.sample_without_replacement rng count (nn - 1) in
  let dests = List.map (fun i -> if i >= source then i + 1 else i) picks in
  let req =
    Sdn.Request.make ~id:0 ~source ~destinations:dests
      ~bandwidth:(Rng.float_range rng 50.0 200.0)
      ~chain:(Sdn.Vnf.random_chain rng)
  in
  (net, req)

let prop_solution_valid =
  Tutil.qtest ~count:150 "appro solutions validate, ≤ K servers"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      let k = 1 + (seed mod 3) in
      match A.solve ~k net req with
      | Error _ -> true
      | Ok res -> (
        List.length res.A.tree.Pt.servers <= k
        &&
        match Pt.validate net res.A.tree with Ok () -> true | Error _ -> false))

let prop_within_2opt1 =
  Tutil.qtest ~count:100 "appro aux cost ≤ 2·OPT(K=1)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match (A.solve ~k:3 net req, E.optimal_one_server net req) with
      | Ok res, Ok opt -> res.A.aux_cost <= (2.0 *. opt.E.cost) +. 1e-6
      | Error _, Error _ -> true
      | _ -> false)

(* Theorem 1: Appro_Multi is a 2K-approximation of the true optimum *)
let prop_theorem_2k =
  Tutil.qtest ~count:60 "Theorem 1: appro(K) ≤ 2K·OPT(K)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      let k = 1 + (seed mod 2) in
      match (A.solve ~k net req, E.optimal ~k net req) with
      | Ok res, Ok opt ->
        res.A.cost <= (2.0 *. float_of_int k *. opt.E.mcost) +. 1e-6
      | Error _, Error _ -> true
      | _ -> false)

let prop_optimal_is_lower_bound =
  Tutil.qtest ~count:60 "OPT(K) ≤ every heuristic and OPT(K) ≤ OPT(1)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match (E.optimal ~k:2 net req, E.optimal_one_server net req, A.solve ~k:2 net req)
      with
      | Ok opt, Ok opt1, Ok appro ->
        opt.E.mcost <= opt1.E.cost +. 1e-6 && opt.E.mcost <= appro.A.cost +. 1e-6
      | _ -> true)

(* the two exact formulations agree at K = 1: shortest path = Steiner
   tree over {s, v}, so the decompositions coincide *)
let prop_exact_oracles_agree =
  Tutil.qtest ~count:60 "optimal(k=1) = optimal_one_server"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match (E.optimal ~k:1 net req, E.optimal_one_server net req) with
      | Ok a, Ok b -> Float.abs (a.E.mcost -. b.E.cost) < 1e-6 *. (1.0 +. b.E.cost)
      | Error _, Error _ -> true
      | _ -> false)

let prop_optimal_tree_valid =
  Tutil.qtest ~count:60 "OPT(K) structures validate"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match E.optimal ~k:2 net req with
      | Error _ -> true
      | Ok opt -> (
        (match Pt.validate net opt.E.mtree with Ok () -> true | Error _ -> false)
        && Float.abs (Pt.cost net opt.E.mtree -. opt.E.mcost)
           < 1e-6 *. (1.0 +. opt.E.mcost)
        && List.for_all
             (fun (d, _) -> List.mem_assoc d opt.E.assignment)
             opt.E.mtree.Pt.routes))

let prop_opt1_lower_bound =
  Tutil.qtest ~count:100 "OPT(K=1) ≤ one_server and ≤ appro(k=1)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match (E.optimal_one_server net req, O.solve net req, A.solve ~k:1 net req) with
      | Ok opt, Ok base, Ok appro ->
        opt.E.cost <= base.O.cost +. 1e-6 && opt.E.cost <= appro.A.cost +. 1e-6
      | _ -> true)

let prop_k_improves =
  Tutil.qtest ~count:100 "appro(k=3) ≤ appro(k=1)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match (A.solve ~k:3 net req, A.solve ~k:1 net req) with
      | Ok r3, Ok r1 -> r3.A.aux_cost <= r1.A.aux_cost +. 1e-6
      | _ -> true)

let prop_one_server_valid =
  Tutil.qtest ~count:150 "one_server solutions validate with one server"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match O.solve net req with
      | Error _ -> true
      | Ok res -> (
        List.length res.O.tree.Pt.servers = 1
        &&
        match Pt.validate net res.O.tree with Ok () -> true | Error _ -> false))

let prop_exact_valid =
  Tutil.qtest ~count:100 "exact K=1 oracle validates"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req = small_instance seed in
      match E.optimal_one_server net req with
      | Error _ -> true
      | Ok res -> (
        match Pt.validate net res.E.tree with Ok () -> true | Error _ -> false))

let prop_capacitated_never_exceeds =
  Tutil.qtest ~count:80 "sequential admits never exceed capacity"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:8 ~hi:20 in
      let reqs = Workload.Gen.sequence rng net ~count:30 in
      List.iter (fun r -> ignore (A.admit ~k:2 net r)) reqs;
      let ok = ref true in
      for e = 0 to N.m net - 1 do
        if N.link_residual net e < -1e-6 then ok := false
      done;
      List.iter
        (fun v -> if N.server_residual net v < -1e-6 then ok := false)
        (N.servers net);
      !ok)

(* --- pruned enumeration vs every subset priced --- *)

(* Appro_multi's candidate order: cost, then subset size, then the
   subset itself *)
let by_order (ca, sa, _) (cb, sb, _) =
  compare (ca, List.length sa, sa) (cb, List.length sb, sb)

(* every feasible combination priced, none skipped, through the public
   Aux_graph API: the unpruned Algorithm 1 *)
let all_priced ?placement_cost ~k ~keep ~usable net req =
  let aux =
    Ag.build ~engine:(Tutil.offline_engine ~keep net req) ?placement_cost ~k ~net
      ~request:req ~candidate_servers:usable ()
  in
  let found = ref [] in
  C.iter_subsets_up_to (Ag.reachable_servers aux) k (fun subset ->
      let sm = Ag.subset_metric aux subset in
      match Ag.steiner_tree sm with
      | None -> ()
      | Some edges ->
        let c = Ag.tree_cost sm edges in
        if c < infinity then found := (c, subset, edges) :: !found);
  (aux, List.sort by_order !found)

let bits = Int64.bits_of_float

let same_candidate (ca, sa, ea) (cb, sb, eb) =
  bits ca = bits cb && sa = sb && ea = eb

let proper_subset a b =
  List.length a < List.length b && List.for_all (fun v -> List.mem v b) a

(* [pruned] keeps [full]'s order, and every entry it omits repeats, bit
   for bit, the cost and tree of a proper subset listed before it *)
let rec omits_only_repeats ~before full pruned =
  match (full, pruned) with
  | [], [] -> true
  | [], _ :: _ -> false
  | x :: full', y :: pruned' when same_candidate x y ->
    omits_only_repeats ~before:(x :: before) full' pruned'
  | ((c, s, e) as x) :: full', _ ->
    List.exists
      (fun (c', s', e') -> bits c' = bits c && e' = e && proper_subset s' s)
      before
    && omits_only_repeats ~before:(x :: before) full' pruned

let same_result (cost, subset, tree) = function
  | Ok res ->
    bits res.A.aux_cost = bits cost
    && res.A.subset = List.sort Int.compare subset
    && res.A.tree = tree
  | Error _ -> false

let expect_solve aux full got =
  match (full, got) with
  | [], Error _ -> true
  | (c, s, e) :: _, got -> same_result (c, s, Ag.to_pseudo_tree aux e) got
  | [], Ok _ -> false

(* one instance, built twice from its seed: the network the library
   mutates and the one the oracle allocates on, kept in step *)
let oracle_instance seed =
  let rng = Rng.create seed in
  let uniform = N.uniform_profile ~link_capacity:700.0 ~server_capacity:6000.0 in
  let net =
    match seed mod 3 with
    | 0 ->
      (* float costs; tight links so that some trees fail to allocate *)
      let profile = { N.default_profile with N.link_capacity = (300.0, 900.0) } in
      N.make_random_servers ~profile ~fraction:0.2 ~rng
        (Topology.Waxman.generate ~alpha:0.5 ~beta:0.4 rng
           ~n:(Rng.int_range rng 10 24))
    | 1 ->
      N.make_random_servers ~profile:uniform ~fraction:0.25 ~rng
        (Topology.Waxman.generate ~alpha:0.5 ~beta:0.4 rng
           ~n:(Rng.int_range rng 10 24))
    | _ ->
      N.make ~profile:uniform ~rng ~servers:Topology.Geant.default_servers
        (Topology.Geant.topology ())
  in
  (net, Workload.Gen.sequence rng net ~count:8)

let capacitated_filters net req =
  let b = req.Sdn.Request.bandwidth in
  let demand = Sdn.Request.demand_mhz req in
  ( (fun e -> N.link_admits net e b),
    List.filter (fun v -> N.server_admits net v demand) (N.servers net) )

(* [net] and [twin] are one instance built twice: [solve],
   [solve_capacitated], [candidates] and [admit] on [net] against the
   oracle, which allocates on [twin] *)
let pruning_keeps ~k net twin reqs =
  List.for_all
    (fun req ->
      let aux, full =
        all_priced ~k ~keep:(fun _ -> true) ~usable:(N.servers net) net req
      in
      let solve_ok = expect_solve aux full (A.solve ~k net req) in
      let keep, usable = capacitated_filters net req in
      let caux, cfull = all_priced ~k ~keep ~usable net req in
      let cap_ok = expect_solve caux cfull (A.solve_capacitated ~k net req) in
      let cands =
        List.map
          (fun (c, s, _, e) -> (c, s, e))
          (A.candidates ~k
             ~engine:(Tutil.offline_engine ~keep net req)
             ~usable_servers:usable net req)
      in
      let cands_ok = omits_only_repeats ~before:[] cfull cands in
      (* the first oracle candidate the twin can allocate *)
      let expected =
        List.find_map
          (fun (c, s, e) ->
            let tree = Ag.to_pseudo_tree caux e in
            match N.allocate twin (Pt.allocation tree) with
            | Ok () -> Some (c, s, tree)
            | Error _ -> None)
          cfull
      in
      let got = A.admit ~k net req in
      let admit_ok =
        match expected with
        | Some want -> same_result want got
        | None -> Result.is_error got
      in
      solve_ok && cap_ok && cands_ok && admit_ok)
    reqs

let prop_pruning_exact =
  Tutil.qtest ~count:100
    "pruned subsets change no solve, admit or candidate order"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let k = 2 + (seed / 3 mod 2) in
      let net, reqs = oracle_instance seed in
      let twin, _ = oracle_instance seed in
      pruning_keeps ~k net twin reqs)

(* K = 4: a skipped subset may take its bottleneck through a chain of
   skips *)
let prop_pruning_exact_k4 =
  Tutil.qtest ~count:30 "pruning changes nothing at K = 4"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, reqs = oracle_instance seed in
      let twin, _ = oracle_instance seed in
      pruning_keeps ~k:4 net twin reqs)

(* Integer link costs in 1..3, integer server costs and bandwidths: every
   distance is an exact integer, so closure distances, virtual routes
   and bottlenecks tie exactly and often. *)
let integer_instance seed =
  let rng = Rng.create seed in
  let topology =
    Topology.Waxman.generate ~alpha:0.5 ~beta:0.4 rng ~n:(Rng.int_range rng 10 24)
  in
  let m = Topology.Topo.m topology and nn = Topology.Topo.n topology in
  let link_unit_costs = Array.init m (fun _ -> float_of_int (1 + Rng.int rng 3)) in
  let link_capacities =
    Array.init m (fun _ -> float_of_int (100 * Rng.int_range rng 3 9))
  in
  let servers =
    List.filter_map
      (fun v ->
        if v = 0 || Rng.int rng 4 = 0 then
          Some (v, 6000.0, float_of_int (1 + Rng.int rng 2))
        else None)
      (List.init nn Fun.id)
  in
  let net =
    N.make_explicit ~topology ~servers ~link_capacities ~link_unit_costs ()
  in
  let reqs =
    List.map
      (fun r ->
        { r with Sdn.Request.bandwidth = float_of_int (50 * (1 + Rng.int rng 4)) })
      (Workload.Gen.sequence rng net ~count:8)
  in
  (net, reqs)

let prop_pruning_exact_ties =
  Tutil.qtest ~count:60 "pruning changes nothing under integer-cost ties"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let k = 2 + (seed mod 2) in
      let net, reqs = integer_instance seed in
      let twin, _ = integer_instance seed in
      pruning_keeps ~k net twin reqs)

(* Zero placement cost: a server's virtual route is its distance from
   the source alone. Only [candidates] takes a placement price. *)
let prop_pruning_exact_free_placement =
  Tutil.qtest ~count:60 "pruning changes no candidate at zero placement cost"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let k = 2 + (seed / 2 mod 2) in
      let net, reqs =
        if seed mod 2 = 0 then oracle_instance seed else integer_instance seed
      in
      let placement_cost _ = 0.0 in
      List.for_all
        (fun req ->
          let keep, usable = capacitated_filters net req in
          let _, full = all_priced ~placement_cost ~k ~keep ~usable net req in
          let cands =
            List.map
              (fun (c, s, _, e) -> (c, s, e))
              (A.candidates ~k ~placement_cost
                 ~engine:(Tutil.offline_engine ~keep net req)
                 ~usable_servers:usable net req)
          in
          omits_only_repeats ~before:[] full cands)
        reqs)

(* Condition (a) at the destinations alone does not make a server
   inert. GÉANT at uniform costs, seed 2, request 43: server 21's
   virtual route loses to server 0's at both destinations by more than
   the slack, yet {0, 21} and {0} get different KMB trees, because 21
   can also serve as a hub on the way. *)
let test_weak_rule_changes_tree () =
  let rng = Rng.create 2 in
  let net =
    N.make
      ~profile:(N.uniform_profile ~link_capacity:700.0 ~server_capacity:6000.0)
      ~rng ~servers:Topology.Geant.default_servers (Topology.Geant.topology ())
  in
  let req = List.nth (Workload.Gen.sequence rng net ~count:44) 43 in
  let aux =
    Ag.build ~engine:(Tutil.offline_engine net req) ~k:2 ~net ~request:req
      ~candidate_servers:(N.servers net) ()
  in
  let price subset =
    let sm = Ag.subset_metric aux subset in
    match Ag.steiner_tree sm with
    | Some edges -> (Ag.tree_cost sm edges, edges)
    | None -> Alcotest.fail "GÉANT is connected"
  in
  let route v x = Ag.virtual_edge_weight aux v +. Ag.base_dist aux v x in
  let weak =
    List.for_all
      (fun x -> route 21 x > Nfv_multicast.Online_cp.slack (route 0 x))
      req.Sdn.Request.destinations
  in
  Alcotest.(check bool) "(a) holds at every destination" true weak;
  List.iter (fun v -> ignore (price [ v ])) (Ag.reachable_servers aux);
  let cost_r, tree_r = price [ 0 ] and cost_s, tree_s = price [ 0; 21 ] in
  Alcotest.(check bool) "yet the tree changes" true
    (tree_r <> tree_s && bits cost_r <> bits cost_s);
  Alcotest.(check bool) "so {0, 21} is priced" false (Ag.redundant aux [ 0; 21 ]);
  Alcotest.(check bool) "while other pairs are skipped" true
    (List.exists (Ag.redundant aux)
       (Oracle.Subsets.subsets_of_size (Ag.reachable_servers aux) 2))

(* Rule (a'), DESIGN.md §17. GÉANT at uniform costs, seed 1, request 0
   (source 12, destinations 6 and 20). In {6, 10}, server 10's virtual
   route ties server 6's at destination 20, so (a) fails for 10; no
   other server passes either. But every walk through 10's virtual edge
   to a destination costs at least 916.19, above the longest edge
   (557.46) of {6}'s closure MST, so {6, 10} is skipped, and pricing it
   anyway gives {6}'s tree and cost. A bottleneck belongs to the request
   and the weight vector it was found at: another request, or a metric
   at a new vector, must price {6} again before (a') can use it. *)
let test_bottleneck_rule_skips () =
  with_obs @@ fun () ->
  let rng = Rng.create 1 in
  let net =
    N.make
      ~profile:(N.uniform_profile ~link_capacity:700.0 ~server_capacity:6000.0)
      ~rng ~servers:Topology.Geant.default_servers (Topology.Geant.topology ())
  in
  let req = List.hd (Workload.Gen.sequence rng net ~count:1) in
  let engine = Tutil.offline_engine net req in
  let build () =
    Ag.build ~engine ~k:2 ~net ~request:req ~candidate_servers:(N.servers net) ()
  in
  let aux = build () in
  let price_in aux subset =
    let sm = Ag.subset_metric aux subset in
    match Ag.steiner_tree sm with
    | Some edges -> (Ag.tree_cost sm edges, edges)
    | None -> Alcotest.fail "GÉANT is connected"
  in
  let price = price_in aux in
  let route v x = Ag.virtual_edge_weight aux v +. Ag.base_dist aux v x in
  Alcotest.(check bool) "(a) fails at destination 20" false (route 10 20 > route 6 20);
  List.iter (fun v -> if v <> 6 then ignore (price [ v ])) (Ag.reachable_servers aux);
  let cost_r, tree_r = price [ 6 ] in
  let bottleneck = Mcgraph.Steiner.closure_bottleneck () in
  let via =
    List.fold_left
      (fun m y -> Float.min m (Ag.virtual_edge_weight aux 10 +. Ag.base_dist aux 10 y))
      infinity req.Sdn.Request.destinations
  in
  Alcotest.(check bool) "via(10) clears {6}'s bottleneck" true (via > bottleneck +. 1.0);
  let dominated = counter "appro_multi.pruned.dominated"
  and beyond = counter "appro_multi.pruned.bottleneck" in
  Alcotest.(check bool) "{6, 10} is skipped" true (Ag.redundant aux [ 6; 10 ]);
  Alcotest.(check int) "under (a')" (beyond + 1) (counter "appro_multi.pruned.bottleneck");
  Alcotest.(check int) "not under (a)" dominated (counter "appro_multi.pruned.dominated");
  let cost_s, tree_s = price [ 6; 10 ] in
  Alcotest.(check bool) "same tree and cost as {6}" true
    (tree_s = tree_r && bits cost_s = bits cost_r);
  N.reset net;
  ignore (price [ 10 ]);
  Alcotest.(check bool) "a new weight vector forgets {6}'s bottleneck" false
    (Ag.redundant aux [ 6; 10 ]);
  ignore (price [ 6 ]);
  Alcotest.(check bool) "until {6} is priced again" true (Ag.redundant aux [ 6; 10 ]);
  let again = build () in
  Alcotest.(check bool) "another request does not read it" false
    (Ag.redundant again [ 6; 10 ]);
  ignore (price_in again [ 6 ]);
  Alcotest.(check bool) "until it prices {6} itself" true (Ag.redundant again [ 6; 10 ])

(* (a') needs its margin. Seven nodes at decimal costs, source 5,
   destinations 1, 2 and 4, bandwidth 1. In exact arithmetic every walk
   through server 0's virtual edge to a destination costs at least 2.3,
   and 2.3 is also the longest edge of {6}'s closure MST. In floats the
   two read 2.3000000000000003 and 2.2999999999999998, so without the
   tolerance (a') would skip {0, 6}, whose KMB tree is not {6}'s. *)
let test_bottleneck_rule_margin () =
  let g =
    Mcgraph.Graph.of_edges ~n:7
      [ (0, 5); (1, 5); (2, 3); (3, 4); (3, 5); (4, 6); (5, 6) ]
  in
  let link_unit_costs = [| 0.6; 1.1; 0.2; 0.6; 1.1; 1.3; 0.6 |] in
  let net =
    N.make_explicit
      ~topology:(Topology.Topo.make ~name:"margin" g)
      ~servers:(List.map (fun v -> (v, 6000.0, 1.0)) [ 0; 2; 3; 6 ])
      ~link_capacities:(Array.make 7 1000.0) ~link_unit_costs ()
  in
  let req =
    Sdn.Request.make ~id:0 ~source:5 ~destinations:[ 1; 2; 4 ] ~bandwidth:1.0
      ~chain:[ Sdn.Vnf.Firewall ]
  in
  let placement_cost = function 3 -> 0.1 | _ -> 0.0 in
  let aux =
    Ag.build ~engine:(Tutil.offline_engine net req) ~placement_cost ~k:2 ~net
      ~request:req ~candidate_servers:(N.servers net) ()
  in
  let price subset =
    let sm = Ag.subset_metric aux subset in
    match Ag.steiner_tree sm with
    | Some edges -> (Ag.tree_cost sm edges, edges)
    | None -> Alcotest.fail "connected"
  in
  List.iter (fun v -> if v <> 6 then ignore (price [ v ])) (Ag.reachable_servers aux);
  let _, tree_r = price [ 6 ] in
  let bottleneck = Mcgraph.Steiner.closure_bottleneck () in
  let via =
    List.fold_left
      (fun m y -> Float.min m (Ag.virtual_edge_weight aux 0 +. Ag.base_dist aux 0 y))
      infinity req.Sdn.Request.destinations
  in
  Alcotest.(check bool) "via(0) is above {6}'s bottleneck by rounding only" true
    (via > bottleneck && via -. bottleneck < 1e-12);
  Alcotest.(check bool) "{0, 6} is priced" false (Ag.redundant aux [ 0; 6 ]);
  let _, tree_s = price [ 0; 6 ] in
  Alcotest.(check bool) "and its tree is not {6}'s" true (tree_s <> tree_r)

(* --- one domain, many requests --- *)

(* [solve], [solve_capacitated] and [admit] take turns on one domain
   across two networks (two base graphs) and two candidate lists: every
   server, and those with computing residual, which shrinks as admits
   drain servers. Each result — subset, cost bits, tree — is the one its
   network's own sequence gives on a freshly spawned domain, where each
   network's requests run back to back. Nothing a domain keeps between
   requests may carry over from one request to another. *)
let test_one_domain_isolation () =
  let sequences () =
    List.map
      (fun seed ->
        (* servers small enough that a few admits drain them *)
        let rng = Rng.create seed in
        let topo = Topology.Waxman.generate ~alpha:0.5 ~beta:0.4 rng ~n:30 in
        let profile = { N.default_profile with server_capacity = (300.0, 800.0) } in
        let net = N.make_random_servers ~profile ~fraction:0.2 ~rng topo in
        (net, Workload.Gen.sequence rng net ~count:36))
      [ 21; 22 ]
  in
  let run net i r =
    let res =
      match i mod 3 with
      | 0 -> A.solve net r
      | 1 -> A.solve_capacitated net r
      | _ -> A.admit net r
    in
    Result.map
      (fun x -> (x.A.subset, bits x.A.cost, bits x.A.aux_cost, x.A.tree))
      res
  in
  (* the capacity-filtered candidate list each request sees *)
  let usable net r =
    List.filter
      (fun v -> N.server_admits net v (Sdn.Request.demand_mhz r))
      (N.servers net)
  in
  let here = sequences () in
  let lists = ref [] in
  let skips = counter "appro_multi.pruned.bottleneck" in
  let interleaved =
    with_obs (fun () ->
        List.init 36 (fun i ->
            List.map
              (fun (net, reqs) ->
                let r = List.nth reqs i in
                lists := usable net r :: !lists;
                run net i r)
              here))
  in
  Alcotest.(check bool) "rule (a') skips some subsets" true
    (counter "appro_multi.pruned.bottleneck" > skips);
  let alone =
    Domain.join
      (Domain.spawn (fun () ->
           List.map
             (fun (net, reqs) -> List.mapi (fun i r -> run net i r) reqs)
             (sequences ())))
  in
  Alcotest.(check bool) "several filtered candidate lists" true
    (List.length (List.sort_uniq compare !lists) > 2);
  Alcotest.(check bool) "some tree has two servers" true
    (List.exists
       (List.exists (function
          | Ok (subset, _, _, _) -> List.length subset > 1
          | Error _ -> false))
       interleaved);
  List.iteri
    (fun n results ->
      List.iteri
        (fun i res ->
          if List.nth (List.nth interleaved i) n <> res then
            Alcotest.failf "network %d, request %d differs from a fresh domain" n i)
        results)
    alone

let () =
  Alcotest.run "appro"
    [
      ( "combinations",
        [
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "subsets_of_size" `Quick test_subsets;
          Alcotest.test_case "subsets_up_to" `Quick test_subsets_up_to;
          Alcotest.test_case "iter_subsets" `Quick test_iter_subsets;
        ] );
      ( "unit",
        [
          Alcotest.test_case "multi-server wins on clusters" `Quick
            test_multi_server_wins;
          Alcotest.test_case "K monotone" `Quick test_k_monotone;
          Alcotest.test_case "capacity-starved server" `Quick test_no_server_error;
          Alcotest.test_case "capacitated pruning" `Quick test_capacitated_prunes_links;
          Alcotest.test_case "admit allocates" `Quick test_admit_allocates;
          Alcotest.test_case "k validation" `Quick test_rejects_bad_k;
          Alcotest.test_case "foreign window refused" `Quick
            test_refuses_foreign_window;
          Alcotest.test_case "(a) at destinations alone is unsound" `Quick
            test_weak_rule_changes_tree;
          Alcotest.test_case "(a') skips past the bottleneck" `Quick
            test_bottleneck_rule_skips;
          Alcotest.test_case "(a') keeps its margin" `Quick test_bottleneck_rule_margin;
          Alcotest.test_case "one domain, interleaved requests" `Quick
            test_one_domain_isolation;
        ] );
      ( "property",
        [
          prop_solution_valid;
          prop_within_2opt1;
          prop_theorem_2k;
          prop_exact_oracles_agree;
          prop_optimal_is_lower_bound;
          prop_optimal_tree_valid;
          prop_opt1_lower_bound;
          prop_k_improves;
          prop_one_server_valid;
          prop_exact_valid;
          prop_capacitated_never_exceeds;
          prop_pruning_exact;
          prop_pruning_exact_k4;
          prop_pruning_exact_ties;
          prop_pruning_exact_free_placement;
        ] );
    ]
