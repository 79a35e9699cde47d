module Adm = Nfv_multicast.Admission
module Rb = Nfv_multicast.Rule_budget

let algos = [ Adm.Online_cp_no_threshold; Adm.Sp ]
let capacities = [ 25; 50; 100; 200; 400 ]

(* One pool point = one per-switch rule capacity; both algorithms admit
   the same sequence under that budget, so they stay inside the point. *)

let instance ?(n = 100) ?(requests = 400) () =
  let sweep =
    Spec.grid ~key:"table" capacities (fun ~rng cap ->
        let net = Exp_common.network rng ~n in
        let reqs = Workload.Gen.sequence rng net ~count:requests in
        List.map
          (fun algo ->
            Sdn.Network.reset net;
            let budget = Rb.create net ~capacity:cap in
            let k =
              List.fold_left
                (fun k r ->
                  match Rb.admit budget net algo r with
                  | Ok _ -> k + 1
                  | Error _ -> k)
                0 reqs
            in
            ("adm_" ^ Adm.algorithm_to_string algo, float_of_int k))
          algos)
  in
  let figures =
    [
      {
        Spec.fid = "tableA";
        title = "forwarding-table budgets: admitted vs per-switch capacity";
        xlabel = "rules per switch";
        ylabel = "admitted";
        series =
          List.map
            (fun a ->
              let name = Adm.algorithm_to_string a in
              {
                Spec.label = name;
                cells =
                  Spec.cells ~sweep:0 capacities (fun cap ->
                      [ (float_of_int cap, "adm_" ^ name) ]);
              })
            algos;
        notes = [ Printf.sprintf "n = %d, %d requests, K = 1" n requests ];
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"tables"
    ~doc:"Extension: per-switch forwarding-table budgets"
    ~smoke:(fun ~seed:_ -> instance ~n:40 ~requests:20 ())
    (fun ~seed:_ ~requests -> instance ?requests ())
