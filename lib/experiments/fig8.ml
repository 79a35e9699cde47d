module Adm = Nfv_multicast.Admission

let algos = [ Adm.Online_cp; Adm.Online_cp_no_threshold; Adm.Sp ]

let admit_span = function
  | Adm.Sp -> "online_sp.admit"
  | Adm.Online_cp | Adm.Online_cp_no_threshold | Adm.Online_linear ->
    "online_cp.admit"

(* One pool point = one network size. The three algorithms must race on
   the {e same} network and request sequence, so they stay together
   inside the point rather than becoming points of their own. A probe
   around each algorithm's run separates the two Online_CP variants'
   contributions to the shared "online_cp.admit" histogram. *)
let point ~requests ~n ~rng =
  let net = Exp_common.network rng ~n in
  let reqs = Workload.Gen.sequence rng net ~count:requests in
  List.concat_map
    (fun algo ->
      let p = Runner.span_probe (admit_span algo) in
      let s = Adm.run net algo reqs in
      let name = Adm.algorithm_to_string algo in
      [
        ("admitted_" ^ name, float_of_int s.Adm.admitted);
        ("ms_" ^ name, Runner.span_mean_ms p);
      ])
    algos

let instance ?(requests = 1500) ?(sizes = [ 50; 100; 150; 200; 250 ]) () =
  let sweep =
    Spec.grid ~key:"fig8" sizes (fun ~rng n -> point ~requests ~n ~rng)
  in
  let series prefix =
    List.map
      (fun algo ->
        let name = Adm.algorithm_to_string algo in
        {
          Spec.label = name;
          cells =
            Spec.cells ~sweep:0 sizes (fun n ->
                [ (float_of_int n, prefix ^ name) ]);
        })
      algos
  in
  let notes =
    [
      Printf.sprintf "%d online requests, K = 1" requests;
      "paper runs 300 requests; our capacity draw leaves 300 under-subscribed, \
       so the default horizon is longer (EXPERIMENTS.md)";
      "Online_CP_noSigma = Algorithm 2 without the σ admission thresholds";
    ]
  in
  let figures =
    [
      {
        Spec.fid = "fig8a";
        title = "admitted requests vs network size";
        xlabel = "|V|";
        ylabel = "admitted";
        series = series "admitted_";
        notes;
      };
      {
        Spec.fid = "fig8b";
        title = "online running time vs network size";
        xlabel = "|V|";
        ylabel = "ms per request";
        series = series "ms_";
        notes = [ List.hd notes ];
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"fig8" ~doc:"Fig. 8: Online_CP vs SP across network sizes"
    ~ledgers:[ Spec.admission_ledger ]
    ~smoke:(fun ~seed:_ -> instance ~requests:30 ~sizes:[ 30; 50 ] ())
    (fun ~seed:_ ~requests -> instance ?requests ())
