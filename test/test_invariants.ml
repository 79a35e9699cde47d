(* Randomized invariant suite: the paper's guarantees checked on many
   small random instances.

   1. Approximation ratio (Theorem 2): Appro_Multi's cost is within 2K
      of the exact optimum computed by brute force on instances small
      enough for Dreyfus–Wagner.
   2. Structure: every solution is a valid pseudo-multicast tree whose
      witness routes visit a service-chain server before reaching their
      destination.
   3. Capacity safety: no sequence of admissions ever drives a link or
      server residual below zero or above its capacity.

   All trials derive from one master seed, so a failure reproduces
   exactly; each trial logs its per-trial seed on failure. *)

module A = Nfv_multicast.Appro_multi
module E = Oracle.Exact
module P = Nfv_multicast.Pseudo_tree
module Adm = Nfv_multicast.Admission
module Net = Sdn.Network

let eps = 1e-6

(* a small random instance: 8–14 switches, ~25 % servers, a request with
   a bounded destination set *)
let small_instance ?(max_dests = 4) rng =
  let n = 10 + Topology.Rng.int rng 5 in
  let topo =
    (* Transit_stub.generate_sized needs n >= 10, hence the size floor *)
    if Topology.Rng.int rng 4 = 0 then
      Topology.Transit_stub.generate_sized rng ~n
    else Topology.Waxman.generate ~alpha:0.6 ~beta:0.4 rng ~n
  in
  let net = Net.make_random_servers ~fraction:0.25 ~rng topo in
  let nn = Net.n net in
  let source = Topology.Rng.int rng nn in
  let dcount = 1 + Topology.Rng.int rng max_dests in
  let picks =
    Topology.Rng.sample_without_replacement rng (min dcount (nn - 1)) (nn - 1)
  in
  let destinations =
    List.map (fun i -> if i >= source then i + 1 else i) picks
  in
  let request =
    Sdn.Request.make ~id:0 ~source ~destinations
      ~bandwidth:(Topology.Rng.float_range rng 50.0 200.0)
      ~chain:(Sdn.Vnf.random_chain rng)
  in
  (net, request)

(* --- 1. the 2K bound --- *)

let test_approximation_ratio () =
  let rng = Topology.Rng.create 0xA11CE in
  let feasible = ref 0 in
  for trial = 1 to 60 do
    let tseed = Topology.Rng.int rng max_int in
    let trng = Topology.Rng.create tseed in
    let k = 1 + Topology.Rng.int trng 2 in
    let net, req = small_instance trng in
    match (A.solve ~k net req, E.optimal ~k net req) with
    | Ok appro, Ok opt ->
      incr feasible;
      let bound = (2.0 *. float_of_int k *. opt.E.mcost) +. eps in
      if appro.A.cost > bound then
        Alcotest.failf
          "trial %d (seed %d, K=%d): Appro_Multi cost %.4f exceeds 2K x OPT \
           = %.4f (OPT %.4f)"
          trial tseed k appro.A.cost bound opt.E.mcost;
      (* the oracle really is a lower bound for the solution found *)
      if opt.E.mcost > appro.A.cost +. eps then
        Alcotest.failf
          "trial %d (seed %d, K=%d): exact optimum %.4f above Appro_Multi \
           cost %.4f"
          trial tseed k opt.E.mcost appro.A.cost
    | Error _, Error _ -> () (* unreachable destinations: both agree *)
    | Ok _, Error e ->
      Alcotest.failf "trial %d (seed %d): oracle failed on a feasible instance: %s"
        trial tseed e
    | Error e, Ok _ ->
      Alcotest.failf
        "trial %d (seed %d): Appro_Multi failed on a feasible instance: %s"
        trial tseed e
  done;
  (* the generator must actually produce solvable instances *)
  Alcotest.(check bool)
    (Printf.sprintf "enough feasible trials (%d)" !feasible)
    true (!feasible >= 30)

(* --- 2. structural soundness + service-chain property --- *)

let test_tree_structure () =
  let rng = Topology.Rng.create 0xBEEF in
  let feasible = ref 0 in
  for trial = 1 to 80 do
    let tseed = Topology.Rng.int rng max_int in
    let trng = Topology.Rng.create tseed in
    let k = 1 + Topology.Rng.int trng 3 in
    let net, req = small_instance ~max_dests:6 trng in
    match A.solve ~k net req with
    | Error _ -> ()
    | Ok res ->
      incr feasible;
      let tree = res.A.tree in
      (match P.validate net tree with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "trial %d (seed %d, K=%d): invalid tree: %s" trial tseed
          k e);
      if List.length tree.P.servers > k then
        Alcotest.failf "trial %d (seed %d): %d servers exceed K=%d" trial tseed
          (List.length tree.P.servers) k;
      (* every destination's copy is processed by a chosen, real server
         before onward delivery — the service-chain property *)
      List.iter
        (fun d ->
          match List.assoc_opt d tree.P.routes with
          | None ->
            Alcotest.failf "trial %d (seed %d): destination %d has no route"
              trial tseed d
          | Some r ->
            if not (List.mem r.P.server tree.P.servers) then
              Alcotest.failf
                "trial %d (seed %d): destination %d served by %d, not a \
                 chosen server"
                trial tseed d r.P.server;
            if not (Net.is_server net r.P.server) then
              Alcotest.failf
                "trial %d (seed %d): node %d is not a server of the network"
                trial tseed r.P.server)
        req.Sdn.Request.destinations
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough feasible trials (%d)" !feasible)
    true (!feasible >= 40)

(* --- 3. capacity safety --- *)

let check_residuals ~trial ~tseed ~what net =
  let g = Net.graph net in
  for e = 0 to Mcgraph.Graph.m g - 1 do
    let r = Net.link_residual net e and c = Net.link_capacity net e in
    if r < -.eps || r > c +. eps then
      Alcotest.failf
        "trial %d (seed %d, %s): link %d residual %.4f outside [0, %.4f]"
        trial tseed what e r c
  done;
  List.iter
    (fun v ->
      let r = Net.server_residual net v and c = Net.server_capacity net v in
      if r < -.eps || r > c +. eps then
        Alcotest.failf
          "trial %d (seed %d, %s): server %d residual %.4f outside [0, %.4f]"
          trial tseed what v r c)
    (Net.servers net)

let test_capacity_safety () =
  let rng = Topology.Rng.create 0xCAFE in
  let total_admitted = ref 0 in
  for trial = 1 to 60 do
    let tseed = Topology.Rng.int rng max_int in
    let trng = Topology.Rng.create tseed in
    let n = 10 + Topology.Rng.int trng 10 in
    let topo = Topology.Waxman.generate ~alpha:0.6 ~beta:0.4 trng ~n in
    (* tight capacities so admits actually hit the limits *)
    let profile =
      Net.uniform_profile ~link_capacity:400.0 ~server_capacity:600.0
    in
    let net = Net.make_random_servers ~profile ~fraction:0.25 ~rng:trng topo in
    let reqs = Workload.Gen.sequence trng net ~count:12 in
    (* greedy Appro_Multi_Cap admission *)
    List.iter
      (fun r ->
        match A.admit ~k:2 net r with
        | Ok _ -> incr total_admitted
        | Error _ -> ())
      reqs;
    check_residuals ~trial ~tseed ~what:"Appro_Multi_Cap" net;
    (* each online algorithm over the same sequence (run resets first) *)
    List.iter
      (fun algo ->
        let s = Adm.run net algo reqs in
        total_admitted := !total_admitted + s.Adm.admitted;
        check_residuals ~trial ~tseed ~what:(Adm.algorithm_to_string algo) net)
      [ Adm.Online_cp; Adm.Online_cp_no_threshold; Adm.Sp ]
  done;
  (* capacity checks are vacuous if nothing was ever admitted *)
  Alcotest.(check bool)
    (Printf.sprintf "admissions happened (%d)" !total_admitted)
    true (!total_admitted > 60)

let () =
  Alcotest.run "invariants"
    [
      ( "randomized",
        [
          Alcotest.test_case "2K approximation bound" `Slow
            test_approximation_ratio;
          Alcotest.test_case "pseudo-tree structure" `Slow test_tree_structure;
          Alcotest.test_case "capacity safety" `Slow test_capacity_safety;
        ] );
    ]
