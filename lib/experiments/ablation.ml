module Adm = Nfv_multicast.Admission
module A = Nfv_multicast.Appro_multi

(* ---- A1: cost model ---- *)

(* A1 runs four algorithms over the same arrival sequence. Each
   algorithm is a pool point of its own (they are independent full-length
   admission runs), so every point rebuilds the identical network and
   sequence from one shared seed instead of the per-point rng the pool
   hands it. *)

let a1_algos =
  [ Adm.Online_cp; Adm.Online_cp_no_threshold; Adm.Online_linear; Adm.Sp ]

let a1_checkpoints requests =
  let step = max 1 (requests / 10) in
  List.init (requests / step) (fun i -> (i + 1) * step)

let cost_model_instance ~seed ?(requests = 2000) () =
  let n = 100 in
  let shared = Pool.point_seed ~figure:"ablA1" ~index:0 ~seed in
  let checkpoints = a1_checkpoints requests in
  let sweep =
    Spec.grid ~key:"ablA1" a1_algos (fun ~rng:_ algo ->
        let rng = Topology.Rng.create shared in
        let topo = Topology.Waxman.generate ~alpha:0.2 ~beta:0.25 rng ~n in
        let net = Sdn.Network.make_random_servers ~fraction:0.05 ~rng topo in
        let reqs = Workload.Gen.sequence rng net ~count:requests in
        let stats = Adm.run net algo reqs in
        List.map
          (fun p ->
            ( Printf.sprintf "adm@%d" p,
              float_of_int (Adm.admitted_after stats p) ))
          checkpoints)
  in
  let figures =
    [
      {
        Spec.fid = "ablA1";
        title = "cost-model ablation: admissions over a long arrival sequence";
        xlabel = "requests";
        ylabel = "admitted";
        series =
          List.map
            (fun algo ->
              {
                Spec.label = Adm.algorithm_to_string algo;
                cells =
                  Spec.cells ~sweep:0 a1_algos (fun a ->
                      if a <> algo then []
                      else
                        List.map
                          (fun p -> (float_of_int p, Printf.sprintf "adm@%d" p))
                          checkpoints);
              })
            a1_algos;
        notes =
          [
            Printf.sprintf
              "n = %d, 5%% servers, sparse topology; exponential vs linear weights vs SP"
              n;
          ];
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

(* ---- A2: number of servers per chain ---- *)

(* A2 compares K values at each network size, so the K runs at one size
   must share that size's network and requests: the point seed is
   derived from the size index alone. *)
let k_sweep_instance ~seed ?(requests = 20) () =
  let sizes = [ 50; 100; 150 ] in
  let ks = [ 1; 2; 3 ] in
  let params =
    List.concat_map (fun k -> List.mapi (fun si n -> (k, si, n)) sizes) ks
  in
  let sweep =
    Spec.grid ~key:"ablA2" params (fun ~rng:_ (k, si, n) ->
        let rng =
          Topology.Rng.create (Pool.point_seed ~figure:"ablA2" ~index:si ~seed)
        in
        let net = Exp_common.network rng ~n in
        let spec = { Workload.Gen.default_spec with dmax_ratio = Some 0.2 } in
        let reqs = Workload.Gen.sequence ~spec rng net ~count:requests in
        let p = Runner.span_probe "appro_multi.solve" in
        let cs = ref [] in
        List.iter
          (fun r ->
            match A.solve ~k net r with
            | Ok res -> cs := res.A.cost :: !cs
            | Error _ -> ())
          reqs;
        [ ("cost", Exp_common.mean !cs); ("ms", Runner.span_mean_ms p) ])
  in
  let series metric =
    List.map
      (fun k ->
        {
          Spec.label = Printf.sprintf "K=%d" k;
          cells =
            Spec.cells ~sweep:0 params (fun (k', _, n) ->
                if k' = k then [ (float_of_int n, metric) ] else []);
        })
      ks
  in
  let notes =
    [ Printf.sprintf "Dmax/|V| = 0.2, %d requests per point" requests ]
  in
  let figures =
    [
      {
        Spec.fid = "ablA2cost";
        title = "K ablation: Appro_Multi cost vs network size";
        xlabel = "|V|";
        ylabel = "mean cost";
        series = series "cost";
        notes;
      };
      {
        Spec.fid = "ablA2time";
        title = "K ablation: Appro_Multi running time vs network size";
        xlabel = "|V|";
        ylabel = "ms per request";
        series = series "ms";
        notes;
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

(* ---- A2 companion: the designed two-cluster instance ---- *)

let cluster_ks = [ 1; 2 ]
let cluster_bandwidths = [ 25.0; 50.0; 100.0; 150.0; 200.0 ]
let cluster_metric k b = Printf.sprintf "k%d@%g" k b

(* Where multiple servers genuinely pay off: a source between two
   destination clusters, a server next to each cluster. A single chain
   instance forces the processed stream to re-cross one arm (2·arm·b
   extra bandwidth); a second instance costs one more chain placement.
   The crossover sits at b ≈ chain_cost / (2·arm). The single point
   derives nothing from the pool rng: the designed topology is seeded
   directly from the user seed. *)
let two_cluster_instance ~seed =
  let arm = 4 in
  let point ~rng:_ () =
    let rng = Topology.Rng.create seed in
    (* nodes: 0 = source; arm nodes per side; server at the far end of each
       arm, one destination hanging off each server *)
    let n = (2 * arm) + 5 in
    let g = Mcgraph.Graph.create n in
    let chain_path start nodes =
      List.fold_left
        (fun prev v ->
          ignore (Mcgraph.Graph.add_edge g prev v);
          v)
        start nodes
    in
    let left_nodes = List.init arm (fun i -> 1 + i) in
    let right_nodes = List.init arm (fun i -> 1 + arm + i) in
    let left_end = chain_path 0 left_nodes in
    let right_end = chain_path 0 right_nodes in
    let s_left = (2 * arm) + 1 and s_right = (2 * arm) + 2 in
    let d_left = (2 * arm) + 3 and d_right = (2 * arm) + 4 in
    ignore (Mcgraph.Graph.add_edge g left_end s_left);
    ignore (Mcgraph.Graph.add_edge g right_end s_right);
    ignore (Mcgraph.Graph.add_edge g s_left d_left);
    ignore (Mcgraph.Graph.add_edge g s_right d_right);
    let topo = Topology.Topo.make ~name:"two-cluster" g in
    let net =
      Sdn.Network.make
        ~profile:
          (Sdn.Network.uniform_profile ~link_capacity:100_000.0
             ~server_capacity:12_000.0)
        ~rng ~servers:[ s_left; s_right ] topo
    in
    List.concat_map
      (fun k ->
        List.map
          (fun b ->
            let req =
              Sdn.Request.make ~id:0 ~source:0
                ~destinations:[ d_left; d_right ] ~bandwidth:b
                ~chain:[ Sdn.Vnf.Nat; Sdn.Vnf.Firewall; Sdn.Vnf.Ids ]
            in
            let cost =
              match A.solve ~k net req with
              | Ok r -> r.A.cost
              | Error _ -> nan
            in
            (cluster_metric k b, cost))
          cluster_bandwidths)
      cluster_ks
  in
  let sweep = Spec.grid ~key:"ablA2cluster" [ () ] point in
  let figures =
    [
      {
        Spec.fid = "ablA2cluster";
        title = "K ablation: two destination clusters, server next to each";
        xlabel = "bandwidth (Mbps)";
        ylabel = "implementation cost";
        series =
          List.map
            (fun k ->
              {
                Spec.label = Printf.sprintf "K=%d" k;
                cells =
                  Spec.cells ~sweep:0 [ () ] (fun () ->
                      List.map
                        (fun b -> (b, cluster_metric k b))
                        cluster_bandwidths);
              })
            cluster_ks;
        notes =
          [
            Printf.sprintf
              "arm length %d; chain <NAT,Firewall,IDS> = 145 MHz; crossover at b ≈ 145/(2·%d)·c"
              arm arm;
          ];
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

(* ---- A3: placement strategies ---- *)

(* joint optimisation (Appro_Multi) vs tree-first placement (Inline, the
   paper's Fig. 3 derivation) vs the §VI-A baseline; the three solvers
   compare per request, so they stay inside the per-size point *)
let a3_labels =
  [
    ("joint", "Appro_Multi (joint)");
    ("inline", "Inline (tree-first)");
    ("one", "Alg_One_Server");
  ]

let placement_instance ?(requests = 40) () =
  let sizes = [ 50; 100; 150 ] in
  let sweep =
    Spec.grid ~key:"ablA3" sizes (fun ~rng n ->
        let net = Exp_common.network rng ~n in
        let spec = { Workload.Gen.default_spec with dmax_ratio = Some 0.15 } in
        let reqs = Workload.Gen.sequence ~spec rng net ~count:requests in
        let totals = [| []; []; [] |] in
        List.iter
          (fun r ->
            match
              ( A.solve ~k:2 net r,
                Nfv_multicast.Inline_tree.solve ~k:2 net r,
                Nfv_multicast.One_server.solve net r )
            with
            | Ok a, Ok i, Ok o ->
              totals.(0) <- a.A.cost :: totals.(0);
              totals.(1) <- i.Nfv_multicast.Inline_tree.cost :: totals.(1);
              totals.(2) <- o.Nfv_multicast.One_server.cost :: totals.(2)
            | _ -> ())
          reqs;
        List.mapi (fun li (m, _) -> (m, Exp_common.mean totals.(li))) a3_labels)
  in
  let figures =
    [
      {
        Spec.fid = "ablA3";
        title = "placement strategy: joint vs tree-first vs baseline";
        xlabel = "|V|";
        ylabel = "mean cost";
        series =
          List.map
            (fun (m, label) ->
              {
                Spec.label = label;
                cells =
                  Spec.cells ~sweep:0 sizes (fun n -> [ (float_of_int n, m) ]);
              })
            a3_labels;
        notes =
          [
            Printf.sprintf "Dmax/|V| = 0.15, K = 2, %d requests per point"
              requests;
          ];
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

(* ---- A4: the K > 1 online variant ---- *)

(* admitted requests vs K under sustained load (future-work direction).
   The four runs (K ∈ {1,2,3} and the SP reference) are independent, so
   each is a pool point that rebuilds the shared network and sequence
   from one seed. *)
let online_k_instance ~seed ?(requests = 800) () =
  let n = 100 in
  let ks = [ 1; 2; 3 ] in
  let tasks = List.map (fun k -> `K k) ks @ [ `Sp ] in
  let shared = Pool.point_seed ~figure:"ablA4" ~index:0 ~seed in
  let sweep =
    Spec.grid ~key:"ablA4" tasks (fun ~rng:_ task ->
        let rng = Topology.Rng.create shared in
        let net = Exp_common.network rng ~n in
        let reqs = Workload.Gen.sequence rng net ~count:requests in
        let admitted =
          match task with
          | `K k -> Nfv_multicast.Online_multi.run ~k net reqs
          | `Sp -> (Adm.run net Adm.Sp reqs).Adm.admitted
        in
        [ ("admitted", float_of_int admitted) ])
  in
  let at_k k = (float_of_int k, "admitted") in
  let figures =
    [
      {
        Spec.fid = "ablA4";
        title = "online multi-server placement: admitted vs K";
        xlabel = "K";
        ylabel = "admitted";
        series =
          [
            {
              Spec.label = "Online_Multi";
              cells =
                Spec.cells ~sweep:0 tasks (function
                  | `K k -> [ at_k k ]
                  | `Sp -> []);
            };
            {
              Spec.label = "SP";
              cells =
                Spec.cells ~sweep:0 tasks (function
                  | `K _ -> []
                  | `Sp -> List.map at_k ks);
            };
          ];
        notes =
          [
            Printf.sprintf
              "n = %d, %d requests; exponential prices, no σ thresholds (the K>1 \
               online setting the paper leaves open)"
              n requests;
          ];
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

(* ---- the combined family ---- *)

let instance ~seed ?requests () =
  Spec.concat_instances
    [
      cost_model_instance ~seed ?requests ();
      k_sweep_instance ~seed ?requests ();
      two_cluster_instance ~seed;
      placement_instance ?requests ();
      online_k_instance ~seed ?requests ();
    ]

let spec =
  Spec.make ~id:"ablation"
    ~doc:"Ablations A1-A4: cost model, servers per chain, placement, online K"
    ~smoke:(fun ~seed -> instance ~seed ~requests:12 ())
    (fun ~seed ~requests -> instance ~seed ?requests ())
