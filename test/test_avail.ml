(* Availability-aware admission: make_avail validation, exposure
   semantics (idle / allocated / confiscated / healed), and the two
   equivalence properties — alpha = 0 is bit-identical to the baseline,
   and the pruning screen stays exact under a non-zero surcharge. *)

module G = Mcgraph.Graph
module N = Sdn.Network
module Fault = Sdn.Fault
module Cp = Nfv_multicast.Online_cp
module Adm = Nfv_multicast.Admission
module Dyn = Nfv_multicast.Dynamic
module Pt = Nfv_multicast.Pseudo_tree
module Rng = Topology.Rng
module Obs = Nfv_obs.Obs

let with_obs f =
  Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Obs.enabled := false) f

let counter name = Obs.Counter.value (Obs.Counter.make name)

let mk_request ~id ~source ~destinations ~bandwidth =
  Sdn.Request.make ~id ~source ~destinations ~bandwidth
    ~chain:[ Sdn.Vnf.Firewall ]

(* the 6-node designed net of test_dynamic_churn: one server (node 2),
   six 100-Mbps links *)
let designed_net () =
  let g = G.create 6 in
  ignore (G.add_edge g 0 1);
  ignore (G.add_edge g 1 2);
  ignore (G.add_edge g 2 3);
  ignore (G.add_edge g 1 4);
  ignore (G.add_edge g 4 3);
  ignore (G.add_edge g 4 5);
  let topo = Topology.Topo.make ~name:"avail-net" g in
  N.make_explicit ~topology:topo
    ~servers:[ (2, 1000.0, 1.0) ]
    ~link_capacities:(Array.make (G.m g) 100.0)
    ~link_unit_costs:(Array.make (G.m g) 1.0) ()

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* ---- construction and accessors ---------------------------------------- *)

let test_make_avail_validation () =
  let net = designed_net () in
  List.iter
    (fun (what, f) ->
      Alcotest.(check bool) (what ^ " raises") true (raises_invalid f))
    [
      ("negative alpha", fun () -> Cp.make_avail ~alpha:(-1.0) net [| [ 0 ] |]);
      ("nan alpha", fun () -> Cp.make_avail ~alpha:Float.nan net [| [ 0 ] |]);
      ( "infinite alpha",
        fun () -> Cp.make_avail ~alpha:infinity net [| [ 0 ] |] );
      ("edge out of range", fun () -> Cp.make_avail net [| [ 0; 99 ] |]);
      ("negative edge", fun () -> Cp.make_avail net [| [ -1 ] |]);
      ( "edge in two groups",
        fun () -> Cp.make_avail net [| [ 0; 1 ]; [ 1; 2 ] |] );
    ];
  (* empty groups are dropped, ungrouped links are ungrouped *)
  let av = Cp.make_avail net [| []; [ 0; 2 ]; [] |] in
  Alcotest.(check int) "empty groups dropped" 1 (Cp.avail_group_count av);
  Alcotest.(check int) "edge 0 grouped" 0 (Cp.avail_group_of av 0);
  Alcotest.(check int) "edge 2 grouped" 0 (Cp.avail_group_of av 2);
  Alcotest.(check int) "edge 1 ungrouped" (-1) (Cp.avail_group_of av 1);
  Alcotest.(check int) "out of range is ungrouped" (-1)
    (Cp.avail_group_of av 99);
  Alcotest.(check int) "negative is ungrouped" (-1) (Cp.avail_group_of av (-5));
  Alcotest.(check (float 0.0)) "alpha default" 0.0 (Cp.avail_alpha av)

(* an avail indexes its network's link ids: one built over a network
   with a different link count must be refused up front, not misprice
   or fail deep inside a run *)
let path_net links =
  let g = G.create (links + 1) in
  for v = 0 to links - 1 do
    ignore (G.add_edge g v (v + 1))
  done;
  N.make_explicit
    ~topology:(Topology.Topo.make ~name:"path" g)
    ~servers:[ (0, 1000.0, 1.0) ]
    ~link_capacities:(Array.make links 100.0)
    ~link_unit_costs:(Array.make links 1.0) ()

let test_avail_network_mismatch () =
  let net = designed_net () in
  let req = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0 in
  let trace = [ { Dyn.at = 1.0; holding = 1.0; request = req } ] in
  List.iter
    (fun (what, other) ->
      let av =
        Cp.make_avail ~alpha:1.0 other [| List.init (N.m other) Fun.id |]
      in
      Alcotest.(check int) (what ^ ": link count recorded") (N.m other)
        (Cp.avail_links av);
      List.iter
        (fun algo ->
          Alcotest.(check bool)
            (what ^ ": pricing refuses it under "
            ^ Adm.algorithm_to_string algo)
            true
            (raises_invalid (fun () -> Adm.pricing ~avail:av net algo)))
        [ Adm.Online_cp; Adm.Online_cp_no_threshold; Adm.Online_linear; Adm.Sp ];
      Alcotest.(check bool) (what ^ ": Dynamic.run refuses it") true
        (raises_invalid (fun () -> Dyn.run ~avail:av net Adm.Online_cp trace)))
    [ ("larger network", path_net 9); ("smaller network", path_net 2) ];
  (* a same-size network is accepted *)
  let av = Cp.make_avail ~alpha:1.0 (path_net 6) [| [ 0; 1 ] |] in
  Alcotest.(check bool) "equal link count accepted" false
    (raises_invalid (fun () -> Adm.pricing ~avail:av net Adm.Online_cp))

(* ---- exposure across allocate / release / confiscate / heal ------------- *)

let test_exposure_lifecycle () =
  with_obs @@ fun () ->
  let net = designed_net () in
  let m = N.m net in
  let all = [ List.init m Fun.id ] in
  let av = Cp.make_avail ~alpha:1.0 net (Array.of_list all) in
  Alcotest.(check (float 1e-12)) "idle exposure is 0" 0.0 (Cp.exposure av net 0);
  let r0 = counter "avail.exposure_refreshes" in
  ignore (Cp.exposure av net 0);
  Alcotest.(check int) "same epoch: no refresh" r0
    (counter "avail.exposure_refreshes");
  (* allocate a session: exposure = allocated / total, derived from the
     residuals the allocation actually moved *)
  let req = mk_request ~id:0 ~source:0 ~destinations:[ 3 ] ~bandwidth:10.0 in
  let tree =
    match Adm.admit_tree net Adm.Online_cp req with
    | Ok t -> t
    | Error e -> Alcotest.failf "designed admit failed: %s" e
  in
  let expected () =
    let used = ref 0.0 and cap = ref 0.0 in
    for e = 0 to m - 1 do
      used := !used +. (N.link_capacity net e -. N.link_residual net e);
      cap := !cap +. N.link_capacity net e
    done;
    !used /. !cap
  in
  Alcotest.(check (float 1e-12)) "allocated exposure" (expected ())
    (Cp.exposure av net 0);
  Alcotest.(check bool) "exposure is positive" true (Cp.exposure av net 0 > 0.0);
  Alcotest.(check bool) "epoch bump refreshed" true
    (counter "avail.exposure_refreshes" > r0);
  (* a confiscation counts as exposure: cut a link the tree does not
     use, so only the confiscated capacity moves *)
  let fault = Fault.create net in
  ignore (Fault.inject fault ~live:[ (0, Pt.allocation tree) ] (Fault.Link_down 5));
  Alcotest.(check (float 1e-12)) "confiscated capacity is exposed"
    (expected ()) (Cp.exposure av net 0);
  Alcotest.(check bool) "confiscation raised exposure" true
    (Cp.exposure av net 0 >= 100.0 /. 600.0 -. 1e-12);
  (* heal, then release: exposure returns exactly to 0 *)
  ignore (Fault.inject fault ~live:[ (0, Pt.allocation tree) ] (Fault.Link_up 5));
  N.release net (Pt.allocation tree);
  Alcotest.(check (float 1e-9)) "healed+released exposure is 0" 0.0
    (Cp.exposure av net 0)

(* ---- alpha = 0 equivalence (the ?prune:false pattern) ------------------- *)

let residuals net = Array.init (N.m net) (N.link_residual net)

(* every request's outcome (the admitted tree or the rejection reason)
   and the link residuals right after it, over the whole sequence from
   a reset network *)
let outcomes ?avail net algo reqs =
  let p = Adm.pricing ?avail net algo in
  N.reset net;
  List.map (fun r -> (Adm.admit p r, residuals net)) reqs

let alpha_zero_equivalence seed =
  let net, rng = Tutil.random_network seed ~lo:10 ~hi:22 in
  let groups = Fault.srlg_partition ~groups:4 ~rng net in
  let reqs = Workload.Gen.sequence rng net ~count:20 in
  List.iter
    (fun algo ->
      let base = outcomes net algo reqs in
      let av = Cp.make_avail ~alpha:0.0 net groups in
      if base <> outcomes ~avail:av net algo reqs then
        QCheck.Test.fail_reportf "alpha=0 diverged on %s"
          (Adm.algorithm_to_string algo))
    [ Adm.Online_cp; Adm.Online_cp_no_threshold; Adm.Online_linear; Adm.Sp ];
  true

(* ---- pruning stays exact under a surcharge ------------------------------ *)

let outcome_key = function
  | Cp.Admitted a -> Printf.sprintf "admitted:%d:%.12g" a.Cp.server a.Cp.score
  | Cp.Rejected r -> "rejected:" ^ Cp.rejection_to_string r

let prune_equivalence_under_alpha seed =
  let run prune =
    let net, rng = Tutil.random_network seed ~lo:10 ~hi:22 in
    let groups = Fault.srlg_partition ~groups:4 ~rng net in
    let av = Cp.make_avail ~alpha:2.5 net groups in
    let reqs = Workload.Gen.sequence rng net ~count:20 in
    let outs =
      List.map
        (fun r -> outcome_key (Cp.admit ~prune (Tutil.cp_pricing ~avail:av net) r))
        reqs
    in
    (outs, residuals net)
  in
  let on = run true and off = run false in
  if on <> off then
    QCheck.Test.fail_reportf
      "pruned and unpruned admission diverged under alpha > 0";
  true

(* ---- the exposure cache tracks the residuals exactly --------------------- *)

let exposure_conservation seed =
  let net, rng = Tutil.random_network seed ~lo:10 ~hi:20 in
  let groups = Fault.srlg_partition ~groups:4 ~rng net in
  let av = Cp.make_avail ~alpha:1.0 net groups in
  let check ctx =
    Array.iteri
      (fun gi links ->
        let used =
          List.fold_left
            (fun acc e ->
              acc +. (N.link_capacity net e -. N.link_residual net e))
            0.0 links
        in
        let cap =
          List.fold_left (fun acc e -> acc +. N.link_capacity net e) 0.0 links
        in
        let expected = if cap > 0.0 then used /. cap else 0.0 in
        let got = Cp.exposure av net gi in
        if Float.abs (got -. expected) > 1e-9 then
          QCheck.Test.fail_reportf
            "%s: group %d cached exposure %.12g but residuals say %.12g" ctx
            gi got expected)
      groups
  in
  check "idle";
  (* allocate a handful of sessions, checking after each admit *)
  let reqs = Workload.Gen.sequence rng net ~count:8 in
  let live = ref [] in
  List.iter
    (fun r ->
      (match Cp.admit (Tutil.cp_pricing ~avail:av net) r with
      | Cp.Admitted a ->
        live := (r.Sdn.Request.id, Pt.allocation a.Cp.tree) :: !live
      | Cp.Rejected _ -> ());
      check "after admit")
    reqs;
  (* confiscate a random link, then heal it *)
  let fault = Fault.create net in
  let e = Rng.int rng (N.m net) in
  let victims = Fault.inject fault ~live:!live (Fault.Link_down e) in
  live := List.filter (fun (id, _) -> not (List.mem id victims)) !live;
  check "after cut";
  ignore (Fault.inject fault ~live:!live (Fault.Link_up e));
  check "after heal";
  (* release everything: exposure falls back to (numerically) nothing *)
  List.iter (fun (_, a) -> N.release net a) !live;
  check "after release";
  Array.iteri
    (fun gi _ ->
      if Float.abs (Cp.exposure av net gi) > 1e-9 then
        QCheck.Test.fail_reportf "group %d not empty after full release" gi)
    groups;
  true

let () =
  Alcotest.run "avail"
    [
      ( "designed",
        [
          Alcotest.test_case "make_avail validation" `Quick
            test_make_avail_validation;
          Alcotest.test_case "avail over another network is refused" `Quick
            test_avail_network_mismatch;
          Alcotest.test_case "exposure lifecycle" `Quick
            test_exposure_lifecycle;
        ] );
      ( "property",
        [
          Tutil.qtest ~count:25 "alpha=0 is outcome-identical"
            QCheck.small_nat alpha_zero_equivalence;
          Tutil.qtest ~count:25 "pruning is exact under alpha > 0"
            QCheck.small_nat prune_equivalence_under_alpha;
          Tutil.qtest ~count:25
            "the exposure cache tracks residuals across allocate/cut/heal"
            QCheck.small_nat exposure_conservation;
        ] );
    ]
