(* The lazy Sp_engine must be observationally identical to the eager
   Paths.all_pairs it replaced — same distances AND same extracted paths
   (tie-breaks included), on the pruned weight functions the algorithms
   use (infeasible links priced at infinity). It must also recompute
   trees when the network's weight epoch moves. *)

module G = Mcgraph.Graph
module Paths = Mcgraph.Paths
module Sp = Mcgraph.Sp_engine
module Rng = Topology.Rng
module N = Sdn.Network

(* A Waxman graph with weights where a random subset of edges is pruned
   to infinity, as capacitated algorithms do with saturated links. *)
let waxman_with_pruning seed =
  let rng = Rng.create seed in
  let n = Rng.int_range rng 8 40 in
  let topo = Topology.Waxman.generate ~alpha:0.5 ~beta:0.4 rng ~n in
  let g = topo.Topology.Topo.graph in
  let w =
    Array.init (G.m g) (fun _ ->
        if Rng.float rng 1.0 < 0.15 then infinity
        else Rng.float_range rng 0.1 10.0)
  in
  (g, fun e -> w.(e))

(* --- lazy vs eager equivalence ----------------------------------------- *)

let prop_dist_equals_eager =
  Tutil.qtest ~count:120 "lazy dist = eager all_pairs dist"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, weight = waxman_with_pruning seed in
      let eager = Paths.all_pairs g ~weight in
      let eng = Sp.create g ~weight in
      let n = G.n g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Sp.dist eng u v <> Paths.apsp_dist eager u v then ok := false
        done
      done;
      !ok)

let prop_path_equals_eager =
  Tutil.qtest ~count:120 "lazy path = eager all_pairs path (tie-breaks)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, weight = waxman_with_pruning seed in
      let eager = Paths.all_pairs g ~weight in
      let eng = Sp.create g ~weight in
      let n = G.n g in
      let rng = Rng.create (seed + 1) in
      let ok = ref true in
      (* paths are heavier to extract; sample pairs instead of all n² *)
      for _ = 1 to 50 do
        let u = Rng.int rng n and v = Rng.int rng n in
        if Sp.path eng u v <> Paths.apsp_path eager u v then ok := false
      done;
      !ok)

let prop_queries_are_lazy =
  Tutil.qtest ~count:60 "engine computes only the queried source trees"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, weight = waxman_with_pruning seed in
      let eng = Sp.create g ~weight in
      let n = G.n g in
      let sources = List.sort_uniq compare [ 0; n / 2; n - 1 ] in
      List.iter (fun u -> ignore (Sp.dist eng u 0)) sources;
      (* repeated queries from cached sources must not add trees *)
      List.iter (fun u -> ignore (Sp.dist eng u (n - 1))) sources;
      let st = Sp.stats eng in
      st.Sp.trees_computed = List.length sources
      && st.Sp.cache_hits >= List.length sources)

(* --- epoch invalidation ------------------------------------------------ *)

(* Distances under a residual-dependent weight must change after an
   allocate: the engine may not serve the pre-allocation tree. *)
let test_epoch_invalidation () =
  let rng = Rng.create 42 in
  let topo = Topology.Waxman.generate ~alpha:0.6 ~beta:0.5 rng ~n:20 in
  let net = N.make_random_servers ~fraction:0.3 ~rng topo in
  let g = N.graph net in
  (* weight = congestion-style price: rises with consumed bandwidth *)
  let weight e =
    let cap = N.link_capacity net e in
    1.0 +. ((cap -. N.link_residual net e) /. cap *. 100.0)
  in
  let eng = Sp.create g ~weight ~epoch:(fun () -> N.weight_epoch net) in
  let u, v = G.endpoints g 0 in
  let d_before = Sp.dist eng u v in
  (* consume half of edge 0's bandwidth; epoch bumps, weights rise *)
  let half = N.link_capacity net 0 /. 2.0 in
  (match N.allocate net { N.links = [ (0, half) ]; nodes = [] } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "allocate failed: %s" e);
  let d_after = Sp.dist eng u v in
  Alcotest.(check bool) "distance rose after allocate" true (d_after > d_before);
  let st = Sp.stats eng in
  Alcotest.(check bool) "stale tree was dropped" true (st.Sp.invalidations >= 1);
  (* release returns to the original prices — and bumps the epoch again *)
  N.release net { N.links = [ (0, half) ]; nodes = [] };
  Alcotest.(check (Tutil.check_float)) "release restores distances" d_before
    (Sp.dist eng u v)

let test_epoch_stability () =
  (* without any allocation the epoch is stable: queries hit the cache *)
  let rng = Rng.create 43 in
  let topo = Topology.Waxman.generate rng ~n:15 in
  let net = N.make_random_servers ~fraction:0.3 ~rng topo in
  let g = N.graph net in
  let eng =
    Sp.create g ~weight:(fun _ -> 1.0) ~epoch:(fun () -> N.weight_epoch net)
  in
  for _ = 1 to 5 do
    ignore (Sp.dist eng 0 (G.n g - 1))
  done;
  let st = Sp.stats eng in
  Alcotest.(check int) "one tree" 1 st.Sp.trees_computed;
  Alcotest.(check int) "no invalidations" 0 st.Sp.invalidations

(* --- telemetry counters ------------------------------------------------ *)

module Obs = Nfv_obs.Obs

(* All engines share the process-global "sp_engine.*" counters, so these
   tests reset them, enable recording for their own queries only, and
   diff. *)
let with_obs f =
  Obs.reset_all ();
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

let c_hits = Obs.Counter.make "sp_engine.cache_hits"
let c_misses = Obs.Counter.make "sp_engine.cache_misses"
let c_evictions = Obs.Counter.make "sp_engine.evictions"

let test_obs_hit_miss_counters () =
  with_obs @@ fun () ->
  let g, weight = waxman_with_pruning 11 in
  let eng = Sp.create g ~weight in
  let n = G.n g in
  ignore (Sp.dist eng 0 (n - 1));
  Alcotest.(check int) "first query is a miss" 1 (Obs.Counter.value c_misses);
  Alcotest.(check int) "no hit yet" 0 (Obs.Counter.value c_hits);
  ignore (Sp.dist eng 0 1);
  ignore (Sp.path eng 0 (n - 1));
  Alcotest.(check int) "repeated same-source queries hit" 2
    (Obs.Counter.value c_hits);
  Alcotest.(check int) "still one miss" 1 (Obs.Counter.value c_misses)

let test_obs_epoch_bump_is_miss () =
  with_obs @@ fun () ->
  let g, weight = waxman_with_pruning 12 in
  let epoch = ref 0 in
  let eng = Sp.create g ~weight ~epoch:(fun () -> !epoch) in
  ignore (Sp.dist eng 0 1);
  ignore (Sp.dist eng 0 1);
  Alcotest.(check int) "warm cache" 1 (Obs.Counter.value c_hits);
  incr epoch;
  ignore (Sp.dist eng 0 1);
  Alcotest.(check int) "epoch bump forces a miss" 2
    (Obs.Counter.value c_misses);
  Alcotest.(check int) "no extra hit" 1 (Obs.Counter.value c_hits)

(* The fix this PR verifies: an epoch bump must drop *every* cached
   tree on the next lookup, not only the one being queried — otherwise
   trees for other sources linger as dead weight forever. *)
let test_obs_stale_trees_swept () =
  with_obs @@ fun () ->
  let g, weight = waxman_with_pruning 13 in
  let n = G.n g in
  let epoch = ref 0 in
  let eng = Sp.create g ~weight ~epoch:(fun () -> !epoch) in
  ignore (Sp.dist eng 0 1);
  ignore (Sp.dist eng (n - 1) 1);
  incr epoch;
  (* querying source 0 must sweep the stale tree of source n-1 too *)
  ignore (Sp.dist eng 0 1);
  let st = Sp.stats eng in
  Alcotest.(check int) "both stale trees dropped" 2 st.Sp.invalidations;
  Alcotest.(check int) "evictions counter agrees" 2
    (Obs.Counter.value c_evictions);
  (* and the swept source recomputes rather than serving stale data *)
  ignore (Sp.dist eng (n - 1) 1);
  Alcotest.(check int) "swept source is a fresh miss" 4
    (Obs.Counter.value c_misses)

(* --- renew: closure swap for long-lived engines ------------------------ *)

let test_renew_keeps_cache_same_epoch () =
  let g, weight = waxman_with_pruning 21 in
  let eng = Sp.create g ~weight in
  ignore (Sp.dist eng 0 1);
  (* a new but extensionally equal closure: cached trees must survive *)
  Sp.renew eng ~weight:(fun e -> weight e);
  ignore (Sp.dist eng 0 1);
  let st = Sp.stats eng in
  Alcotest.(check int) "one tree" 1 st.Sp.trees_computed;
  Alcotest.(check int) "post-renew query hits" 1 st.Sp.cache_hits;
  Alcotest.(check int) "nothing swept" 0 st.Sp.invalidations

let test_renew_sweeps_and_swaps_on_epoch_change () =
  let g, _ = waxman_with_pruning 22 in
  let epoch = ref 0 in
  let eng = Sp.create g ~weight:(fun _ -> 1.0) ~epoch:(fun () -> !epoch) in
  let hops = Sp.dist eng 0 1 in
  incr epoch;
  Sp.renew eng ~weight:(fun _ -> 2.0);
  let st = Sp.stats eng in
  Alcotest.(check int) "stale tree swept by renew" 1 st.Sp.invalidations;
  (* the swapped closure is what the recomputation uses *)
  Alcotest.check Tutil.check_float "distances follow the new closure"
    (2.0 *. hops) (Sp.dist eng 0 1)

(* --- Sp_window: engine sharing across an admission window -------------- *)

module W = Nfv_multicast.Sp_window
module Cp = Nfv_multicast.Online_cp

let window_net seed =
  let rng = Rng.create seed in
  let topo = Topology.Waxman.generate ~alpha:0.5 ~beta:0.4 rng ~n:25 in
  (N.make_random_servers ~fraction:0.25 ~rng topo, rng)

(* the bucket must agree exactly with link_admits, so that equal bucket
   (within one epoch) really means an identical pruned-link set *)
let prop_bucket_counts_infeasible_links =
  Tutil.qtest ~count:60 "window bucket = |links that reject b|"
    QCheck.(pair (int_bound 100_000) (int_bound 2_000))
    (fun (seed, b_int) ->
      let b = float_of_int b_int in
      let net, rng = window_net seed in
      (* random partial load so residuals differ across links *)
      for e = 0 to N.m net - 1 do
        if Rng.float rng 1.0 < 0.4 then
          ignore
            (N.allocate net
               { N.links = [ (e, Rng.float rng (N.link_residual net e)) ];
                 nodes = [] })
      done;
      let w = W.create net in
      let direct = ref 0 in
      for e = 0 to N.m net - 1 do
        if not (N.link_admits net e b) then incr direct
      done;
      W.bucket w ~bandwidth:b = !direct)

let test_window_reuse_within_epoch () =
  let net, _ = window_net 31 in
  let w = W.create net in
  let weight _ = 1.0 in
  let e1 = W.engine w ~family:"t" ~bucket:0 ~weight in
  ignore (Sp.dist e1 0 1);
  let before = Sp.global_trees_computed () in
  let e2 = W.engine w ~family:"t" ~bucket:0 ~weight in
  Alcotest.(check bool) "same engine returned" true (e1 == e2);
  ignore (Sp.dist e2 0 1);
  Alcotest.(check int) "cached tree reused, no new Dijkstra" before
    (Sp.global_trees_computed ());
  let st = W.stats w in
  Alcotest.(check int) "engines" 1 st.W.engines;
  Alcotest.(check int) "acquisitions" 2 st.W.acquisitions;
  Alcotest.(check int) "reuses" 1 st.W.reuses;
  (* a different key is a different engine *)
  let e3 = W.engine w ~family:"t" ~bucket:1 ~weight in
  Alcotest.(check bool) "distinct key, distinct engine" false (e1 == e3)

let test_window_sweeps_on_epoch_bump () =
  let net, _ = window_net 32 in
  let w = W.create net in
  let weight _ = 1.0 in
  let e1 = W.engine w ~family:"t" ~bucket:0 ~weight in
  ignore (Sp.dist e1 0 1);
  (match N.allocate net { N.links = [ (0, 1.0) ]; nodes = [] } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "allocate: %s" e);
  let e2 = W.engine w ~family:"t" ~bucket:0 ~weight in
  Alcotest.(check bool) "engine object survives the bump" true (e1 == e2);
  let before = Sp.global_trees_computed () in
  ignore (Sp.dist e2 0 1);
  Alcotest.(check int) "stale tree recomputed after the bump" (before + 1)
    (Sp.global_trees_computed ());
  Alcotest.(check bool) "sweep counted" true
    ((Sp.stats e2).Sp.invalidations >= 1)

(* Cross-request reuse through the real admission path: two identical
   admits that both reject leave the epoch alone, so the second one must
   run entirely from cached trees; an admission (epoch bump) must force
   recomputation. *)
let test_window_cross_request_reuse () =
  let net, rng = window_net 33 in
  let req = Workload.Gen.request rng net ~id:0 in
  let w = W.create net in
  let p = Cp.default_params net in
  let rejecting = { p with Cp.sigma_v = -1.0; sigma_e = -1.0 } in
  (match Cp.admit ~params:rejecting ~window:w net req with
  | Cp.Rejected Cp.Over_threshold -> ()
  | _ -> Alcotest.fail "expected threshold rejection");
  let before = Sp.global_trees_computed () in
  (match Cp.admit ~params:rejecting ~window:w net req with
  | Cp.Rejected Cp.Over_threshold -> ()
  | _ -> Alcotest.fail "expected threshold rejection");
  Alcotest.(check int) "rejected replay costs zero Dijkstras" before
    (Sp.global_trees_computed ());
  (* now actually admit: the allocate bumps the epoch, so a further
     admit of the same request recomputes instead of serving stale *)
  (match Cp.admit ~window:w net req with
  | Cp.Admitted _ -> ()
  | Cp.Rejected r -> Alcotest.failf "idle admit: %s" (Cp.rejection_to_string r));
  let after_admit = Sp.global_trees_computed () in
  ignore (Cp.admit ~window:w net req);
  Alcotest.(check bool) "post-admission requests recompute" true
    (Sp.global_trees_computed () > after_admit)

(* --- CSR structural sanity --------------------------------------------- *)

let test_csr_matches_adjacency () =
  let g, _ = waxman_with_pruning 7 in
  let c = G.csr g in
  let n = G.n g in
  Alcotest.(check int) "offset array length" (n + 1) (Array.length c.G.off);
  Alcotest.(check int) "slot count = 2m" (2 * G.m g) (Array.length c.G.nbr);
  for u = 0 to n - 1 do
    (* CSR row of u must list neighbors in iter_neighbors order *)
    let expected = ref [] in
    G.iter_neighbors g u (fun v e -> expected := (v, e) :: !expected);
    let expected = List.rev !expected in
    let got = ref [] in
    for i = c.G.off.(u) to c.G.off.(u + 1) - 1 do
      got := (c.G.nbr.(i), c.G.eid.(i)) :: !got
    done;
    let got = List.rev !got in
    if expected <> got then Alcotest.failf "CSR row %d disagrees" u
  done

let test_csr_invalidated_by_add_edge () =
  let g = G.create 4 in
  ignore (G.add_edge g 0 1);
  let c1 = G.csr g in
  Alcotest.(check int) "one edge" 2 (Array.length c1.G.nbr);
  ignore (G.add_edge g 1 2);
  let c2 = G.csr g in
  Alcotest.(check int) "rebuilt after add_edge" 4 (Array.length c2.G.nbr)

(* --- weight vector: bit-identity and lifetime ---------------------------- *)

(* An engine serves trees from its per-epoch weight vector; they must be
   bit-identical to a closure Dijkstra at the same weights, across epoch
   bumps (weights mutate, vector refilled) and renews (same epoch: an
   equal closure, vector and trees kept; new epoch: new closure). *)
let prop_vector_spt_bit_identical =
  Tutil.qtest ~count:120 "vector-backed spt = closure dijkstra (bits)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, rng = Tutil.random_connected_graph seed ~lo:2 ~hi:30 in
      let w = Tutil.tied_weights rng g in
      let epoch = ref 0 in
      let eng = Sp.create g ~weight:(Tutil.weight_fn w) ~epoch:(fun () -> !epoch) in
      let n = G.n g in
      let agrees () =
        let s = Rng.int rng n in
        let weight = Tutil.weight_fn w in
        let tree = Sp.spt eng s in
        Tutil.same_spt tree (Tutil.reference_dijkstra g ~weight ~source:s)
        && Tutil.same_spt tree (Paths.dijkstra g ~weight ~source:s)
        && Sp.weights eng = w
      in
      let ok = ref true in
      for _ = 1 to 12 do
        (match Rng.int rng 3 with
        | 0 ->
          (* bump: re-draw a few weights, keeping the ties *)
          let fresh = Tutil.tied_weights rng g in
          Array.iteri (fun e x -> if Rng.int rng 3 = 0 then w.(e) <- x) fresh;
          incr epoch
        | 1 -> Sp.renew eng ~weight:(fun e -> w.(e))
        | _ -> ());
        for _ = 1 to 3 do
          if not (agrees ()) then ok := false
        done
      done;
      !ok)

let test_weight_vector_lifetime () =
  let g, _ = waxman_with_pruning 31 in
  let w = Array.init (G.m g) (fun e -> float_of_int (1 + (e mod 3))) in
  let epoch = ref 0 in
  let eng = Sp.create g ~weight:(fun e -> w.(e)) ~epoch:(fun () -> !epoch) in
  let v0 = Sp.weights eng in
  Alcotest.(check (array (float 0.0))) "filled from the closure" w v0;
  ignore (Sp.spt eng 0);
  Alcotest.(check bool) "a miss reuses the epoch's vector" true
    (Sp.weights eng == v0);
  Sp.renew eng ~weight:(fun e -> w.(e));
  Alcotest.(check bool) "renew at the same epoch keeps it" true
    (Sp.weights eng == v0);
  w.(0) <- 7.0;
  incr epoch;
  let v1 = Sp.weights eng in
  Alcotest.(check bool) "an epoch bump drops it" true (v1 != v0);
  Alcotest.check Tutil.check_float "refilled at the new epoch" 7.0 v1.(0);
  Sp.invalidate eng;
  Alcotest.(check bool) "invalidate drops it" true (Sp.weights eng != v1)

let () =
  Alcotest.run "sp_engine"
    [
      ( "equivalence",
        [
          prop_dist_equals_eager;
          prop_path_equals_eager;
          prop_queries_are_lazy;
          prop_vector_spt_bit_identical;
          Alcotest.test_case "weight vector lifetime" `Quick
            test_weight_vector_lifetime;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "allocate invalidates" `Quick
            test_epoch_invalidation;
          Alcotest.test_case "stable epoch hits cache" `Quick
            test_epoch_stability;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "hit/miss counters" `Quick
            test_obs_hit_miss_counters;
          Alcotest.test_case "epoch bump is a miss" `Quick
            test_obs_epoch_bump_is_miss;
          Alcotest.test_case "stale trees swept" `Quick
            test_obs_stale_trees_swept;
        ] );
      ( "renew",
        [
          Alcotest.test_case "same epoch keeps cache" `Quick
            test_renew_keeps_cache_same_epoch;
          Alcotest.test_case "epoch change sweeps and swaps" `Quick
            test_renew_sweeps_and_swaps_on_epoch_change;
        ] );
      ( "window",
        [
          prop_bucket_counts_infeasible_links;
          Alcotest.test_case "reuse within epoch" `Quick
            test_window_reuse_within_epoch;
          Alcotest.test_case "sweep on epoch bump" `Quick
            test_window_sweeps_on_epoch_bump;
          Alcotest.test_case "cross-request reuse" `Quick
            test_window_cross_request_reuse;
        ] );
      ( "csr",
        [
          Alcotest.test_case "matches adjacency order" `Quick
            test_csr_matches_adjacency;
          Alcotest.test_case "add_edge invalidates" `Quick
            test_csr_invalidated_by_add_edge;
        ] );
    ]
