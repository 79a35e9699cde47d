(* End-to-end scenarios across topologies, plus experiment smoke tests. *)

module A = Nfv_multicast.Appro_multi
module O = Nfv_multicast.One_server
module Adm = Nfv_multicast.Admission
module Pt = Nfv_multicast.Pseudo_tree
module N = Sdn.Network
module Rng = Topology.Rng

let test_geant_pipeline () =
  let rng = Rng.create 1 in
  let net =
    N.make ~rng ~servers:Topology.Geant.default_servers (Topology.Geant.topology ())
  in
  let reqs = Workload.Gen.sequence rng net ~count:20 in
  List.iter
    (fun r ->
      match (A.solve ~k:3 net r, O.solve net r) with
      | Ok a, Ok o ->
        (match Pt.validate net a.A.tree with
        | Ok () -> ()
        | Error e -> Alcotest.failf "appro invalid: %s" e);
        (match Pt.validate net o.O.tree with
        | Ok () -> ()
        | Error e -> Alcotest.failf "one_server invalid: %s" e)
      | Error e, _ -> Alcotest.failf "appro failed on GEANT: %s" e
      | _, Error e -> Alcotest.failf "one_server failed on GEANT: %s" e)
    reqs

let test_geant_appro_beats_baseline_on_average () =
  let rng = Rng.create 2 in
  let net =
    N.make ~rng ~servers:Topology.Geant.default_servers (Topology.Geant.topology ())
  in
  let reqs = Workload.Gen.sequence rng net ~count:100 in
  let total_a = ref 0.0 and total_o = ref 0.0 in
  List.iter
    (fun r ->
      match (A.solve ~k:3 net r, O.solve net r) with
      | Ok a, Ok o ->
        total_a := !total_a +. a.A.cost;
        total_o := !total_o +. o.O.cost
      | _ -> Alcotest.fail "solver failure")
    reqs;
  Alcotest.(check bool) "Appro_Multi cheaper on average" true (!total_a <= !total_o)

let test_as1755_pipeline () =
  let rng = Rng.create 3 in
  let net =
    N.make_random_servers ~fraction:0.1 ~rng (Topology.Rocketfuel.as1755 ())
  in
  let reqs = Workload.Gen.sequence rng net ~count:10 in
  List.iter
    (fun r ->
      match A.solve ~k:3 net r with
      | Ok a -> (
        match Pt.validate net a.A.tree with
        | Ok () -> ()
        | Error e -> Alcotest.failf "invalid: %s" e)
      | Error e -> Alcotest.failf "solve failed: %s" e)
    reqs

let test_fat_tree_monitoring () =
  (* datacenter monitoring: multicast from an edge switch to many edge
     switches over a k=4 fat-tree with servers at two aggregation nodes *)
  let rng = Rng.create 4 in
  let topo = Topology.Fat_tree.generate ~k:4 () in
  let aggs = Topology.Fat_tree.aggregation_switches ~k:4 in
  let servers = [ List.nth aggs 0; List.nth aggs 5 ] in
  let net = N.make ~rng ~servers topo in
  let edges = Topology.Fat_tree.edge_switches ~k:4 in
  let source = List.hd edges in
  let destinations = List.filteri (fun i _ -> i > 0 && i mod 2 = 0) edges in
  let req =
    Sdn.Request.make ~id:0 ~source ~destinations ~bandwidth:120.0
      ~chain:[ Sdn.Vnf.Firewall; Sdn.Vnf.Ids ]
  in
  match A.solve ~k:2 net req with
  | Error e -> Alcotest.failf "fat-tree solve: %s" e
  | Ok res -> (
    match Pt.validate net res.A.tree with
    | Ok () -> ()
    | Error e -> Alcotest.failf "invalid: %s" e)

let test_online_full_run_geant () =
  let rng = Rng.create 5 in
  let net =
    N.make ~rng ~servers:Topology.Geant.default_servers (Topology.Geant.topology ())
  in
  let reqs = Workload.Gen.sequence rng net ~count:200 in
  let cp = Adm.run net Adm.Online_cp_no_threshold reqs in
  let sp = Adm.run net Adm.Sp reqs in
  Alcotest.(check bool) "CP-noSigma >= SP admissions" true
    (cp.Adm.admitted >= sp.Adm.admitted);
  Alcotest.(check bool) "CP balances better" true
    (cp.Adm.jain_fairness >= sp.Adm.jain_fairness -. 0.05)

let test_paper_scale_instance () =
  (* one request at the paper's largest scale: 250 switches, 25 servers,
     K = 3, Dmax/|V| = 0.2 — exercises the combination enumeration and
     the hub metric at full size *)
  let rng = Rng.create 7 in
  let net = Experiments.Exp_common.network rng ~n:250 in
  let spec = { Workload.Gen.default_spec with dmax_ratio = Some 0.2 } in
  let req = Workload.Gen.request ~spec rng net ~id:0 in
  match A.solve ~k:3 net req with
  | Error e -> Alcotest.failf "paper-scale solve: %s" e
  | Ok res ->
    (match Pt.validate net res.A.tree with
    | Ok () -> ()
    | Error e -> Alcotest.failf "invalid: %s" e);
    (match Nfv_multicast.Flow_rules.verify net res.A.tree with
    | Ok () -> ()
    | Error e -> Alcotest.failf "data plane: %s" e);
    Alcotest.(check bool) "explored thousands of combinations" true
      (res.A.combinations > 2000)

let test_admission_interleaving_safe () =
  (* alternate algorithms on one network without reset: capacities hold *)
  let rng = Rng.create 6 in
  let net = Experiments.Exp_common.network rng ~n:60 in
  let reqs = Workload.Gen.sequence rng net ~count:60 in
  N.reset net;
  List.iteri
    (fun i r ->
      if i mod 2 = 0 then
        ignore (Nfv_multicast.Online_cp.admit (Tutil.cp_pricing net) r)
      else
        ignore
          (Nfv_multicast.Online_sp.admit (Nfv_multicast.Sp_window.create net) r))
    reqs;
  for e = 0 to N.m net - 1 do
    if N.link_residual net e < -1e-6 then Alcotest.fail "negative residual"
  done

(* --- experiment smoke tests (tiny sizes, just structure) --- *)

let check_figure (fig : Experiments.Exp_common.figure) =
  if fig.Experiments.Exp_common.series = [] then
    Alcotest.failf "figure %s has no series" fig.Experiments.Exp_common.id;
  List.iter
    (fun s ->
      if s.Experiments.Exp_common.points = [] then
        Alcotest.failf "figure %s series %s empty" fig.Experiments.Exp_common.id
          s.Experiments.Exp_common.label;
      List.iter
        (fun (_, y) ->
          if Float.is_nan y then
            Alcotest.failf "NaN in %s" fig.Experiments.Exp_common.id)
        s.Experiments.Exp_common.points)
    fig.Experiments.Exp_common.series

(* a family's default-scale layout (its full size grid) at a few
   requests; the smoke instances test_specs and the goldens run use
   reduced grids and request counts, so these cases cover what they skip
   (ablation: A1 checkpoints every 2 requests rather than every one) *)
let scaled (spec : Experiments.Spec.t) requests =
  Experiments.Runner.figures ~seed:1
    (spec.Experiments.Spec.instance ~seed:1 ~requests:(Some requests))

let test_fig5_smoke () =
  let figs = scaled Experiments.Fig5.spec 3 in
  Alcotest.(check int) "six figures" 6 (List.length figs);
  List.iter check_figure figs

let test_fig6_smoke () =
  let figs = scaled Experiments.Fig6.spec 5 in
  Alcotest.(check int) "four figures" 4 (List.length figs);
  List.iter check_figure figs

let test_fig7_smoke () =
  let figs = scaled Experiments.Fig7.spec 3 in
  Alcotest.(check int) "two figures" 2 (List.length figs);
  List.iter check_figure figs

let test_fig8_smoke () =
  let figs = scaled Experiments.Fig8.spec 30 in
  Alcotest.(check int) "two figures" 2 (List.length figs);
  List.iter check_figure figs

let test_fig9_smoke () =
  let figs = scaled Experiments.Fig9.spec 60 in
  Alcotest.(check int) "two figures" 2 (List.length figs);
  List.iter check_figure figs

let test_ablation_smoke () =
  let figs = scaled Experiments.Ablation.spec 20 in
  let ids = [ "ablA1"; "ablA2cost"; "ablA2time" ] in
  let checked =
    List.filter (fun f -> List.mem f.Experiments.Exp_common.id ids) figs
  in
  Alcotest.(check int) "A1 and A2 figures" (List.length ids)
    (List.length checked);
  List.iter check_figure checked

let test_render_smoke () =
  let figs = scaled Experiments.Fig9.spec 60 in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.Exp_common.render_all ppf figs;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions Online_CP" true (contains out "Online_CP")

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "GEANT pipeline" `Quick test_geant_pipeline;
          Alcotest.test_case "GEANT appro vs baseline" `Slow
            test_geant_appro_beats_baseline_on_average;
          Alcotest.test_case "AS1755 pipeline" `Quick test_as1755_pipeline;
          Alcotest.test_case "fat-tree monitoring" `Quick test_fat_tree_monitoring;
          Alcotest.test_case "online GEANT run" `Slow test_online_full_run_geant;
          Alcotest.test_case "paper-scale instance" `Slow test_paper_scale_instance;
          Alcotest.test_case "interleaved admission" `Quick
            test_admission_interleaving_safe;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig5" `Slow test_fig5_smoke;
          Alcotest.test_case "fig6" `Slow test_fig6_smoke;
          Alcotest.test_case "fig7" `Slow test_fig7_smoke;
          Alcotest.test_case "fig8" `Slow test_fig8_smoke;
          Alcotest.test_case "fig9" `Slow test_fig9_smoke;
          Alcotest.test_case "ablation" `Slow test_ablation_smoke;
          Alcotest.test_case "render" `Quick test_render_smoke;
        ] );
    ]
