module Adm = Nfv_multicast.Admission
module Dyn = Nfv_multicast.Dynamic

let algos = [ Adm.Online_cp; Adm.Online_cp_no_threshold; Adm.Sp ]
let offered_loads = [ 25.0; 50.0; 100.0; 200.0; 400.0 ]

(* One pool point = one offered load; the algorithms compare on that
   load's trace, so they run together inside the point. *)

let instance ?(n = 100) ?(arrivals = 2000) () =
  let sweep =
    Spec.grid ~key:"dyn" offered_loads (fun ~rng load ->
        let net = Exp_common.network rng ~n in
        (* mean holding 100 time units; rate follows from the target load *)
        let trace =
          Dyn.poisson_trace rng net ~rate:(load /. 100.0) ~mean_holding:100.0
            ~count:arrivals
        in
        List.concat_map
          (fun algo ->
            let s = Dyn.run net algo trace in
            let name = Adm.algorithm_to_string algo in
            [
              ("accept_" ^ name, s.Dyn.acceptance_ratio);
              ("util_" ^ name, s.Dyn.mean_utilization);
            ])
          algos)
  in
  let series prefix =
    List.map
      (fun algo ->
        let name = Adm.algorithm_to_string algo in
        {
          Spec.label = name;
          cells =
            Spec.cells ~sweep:0 offered_loads (fun load ->
                [ (load, prefix ^ name) ]);
        })
      algos
  in
  let note =
    Printf.sprintf
      "n = %d, %d Poisson arrivals, exponential holding (mean 100); x = expected concurrent sessions"
      n arrivals
  in
  let figures =
    [
      {
        Spec.fid = "dynA";
        title = "acceptance ratio vs offered load (with departures)";
        xlabel = "offered load";
        ylabel = "acceptance ratio";
        series = series "accept_";
        notes = [ note ];
      };
      {
        Spec.fid = "dynB";
        title = "time-averaged link utilisation vs offered load";
        xlabel = "offered load";
        ylabel = "mean utilisation";
        series = series "util_";
        notes = [ note ];
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"dynamic"
    ~doc:"Extension: acceptance under request departures vs offered load"
    ~ledgers:[ Spec.admission_ledger ]
    ~smoke:(fun ~seed:_ -> instance ~n:40 ~arrivals:40 ())
    (fun ~seed:_ ~requests -> instance ?arrivals:requests ())
