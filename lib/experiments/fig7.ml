module A = Nfv_multicast.Appro_multi

(* The default sequence is long enough that sequential allocation prunes
   links/servers and the capacitated cost visibly exceeds the
   uncapacitated reference (at the paper's 1 000 requests the effect is
   stronger still; runtime scales linearly in [requests]). One pool
   point = one network size; the admission sweep inside a point is
   inherently sequential (each admit sees the residuals its
   predecessors left), so it stays inside the point. *)

let point ~requests ~n ~rng =
  let net = Exp_common.network rng ~n in
  let spec = { Workload.Gen.default_spec with dmax_ratio = Some 0.2 } in
  let reqs = Workload.Gen.sequence ~spec rng net ~count:requests in
  (* uncapacitated reference on a fresh network *)
  let cu = ref [] in
  List.iter
    (fun r ->
      match A.solve ~k:3 net r with
      | Ok res -> cu := res.A.cost :: !cu
      | Error _ -> ())
    reqs;
  (* capacitated, allocating as we go *)
  Sdn.Network.reset net;
  let pc = Runner.span_probe "appro_multi.admit" in
  let cc = ref [] and adm = ref 0 in
  List.iter
    (fun r ->
      match A.admit ~k:3 net r with
      | Ok res ->
        incr adm;
        cc := res.A.cost :: !cc
      | Error _ -> ())
    reqs;
  [
    ("cost_cap", Exp_common.mean !cc);
    ("cost_uncap", Exp_common.mean !cu);
    ("ms_cap", Runner.span_mean_ms pc);
    ("admitted_frac", float_of_int !adm /. float_of_int requests);
  ]

let instance ?(requests = 120) ?(sizes = [ 50; 100; 150; 200; 250 ]) () =
  let sweep =
    Spec.grid ~key:"fig7" sizes (fun ~rng n -> point ~requests ~n ~rng)
  in
  let row metric =
    Spec.cells ~sweep:0 sizes (fun n -> [ (float_of_int n, metric) ])
  in
  let note =
    Printf.sprintf "Dmax/|V| = 0.2, K = 3, %d sequentially admitted requests"
      requests
  in
  let figures =
    [
      {
        Spec.fid = "fig7a";
        title = "Appro_Multi_Cap operational cost vs network size";
        xlabel = "|V|";
        ylabel = "mean cost";
        series =
          [
            { Spec.label = "Appro_Multi_Cap"; cells = row "cost_cap" };
            { Spec.label = "Appro_Multi (uncap)"; cells = row "cost_uncap" };
          ];
        notes = [ note ];
      };
      {
        Spec.fid = "fig7b";
        title = "Appro_Multi_Cap running time vs network size";
        xlabel = "|V|";
        ylabel = "ms per request";
        series =
          [
            { Spec.label = "Appro_Multi_Cap"; cells = row "ms_cap" };
            { Spec.label = "admitted fraction"; cells = row "admitted_frac" };
          ];
        notes = [ note ];
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"fig7"
    ~doc:"Fig. 7: Appro_Multi_Cap under capacity constraints"
    ~smoke:(fun ~seed:_ -> instance ~requests:10 ~sizes:[ 30; 50 ] ())
    (fun ~seed:_ ~requests -> instance ?requests ())
