module Adm = Nfv_multicast.Admission
module Delay = Nfv_multicast.Delay

let algos = [ Adm.Online_cp_no_threshold; Adm.Sp ]
let deadlines = [ 6.0; 10.0; 15.0; 25.0; 50.0 ]

(* One pool point = one deadline bound; both algorithms admit the same
   request sequence (network reset in between), so they stay inside the
   point. *)

let instance ?(n = 100) ?(requests = 400) () =
  let sweep =
    Spec.grid ~key:"delay" deadlines (fun ~rng bound ->
        let net = Exp_common.network rng ~n in
        let spec =
          { Workload.Gen.default_spec with deadline = Some (bound, bound) }
        in
        let reqs = Workload.Gen.sequence ~spec rng net ~count:requests in
        List.map
          (fun algo ->
            Sdn.Network.reset net;
            let k =
              List.fold_left
                (fun k r ->
                  match Delay.admit net algo r with
                  | Ok _ -> k + 1
                  | Error _ -> k)
                0 reqs
            in
            ( "accept_" ^ Adm.algorithm_to_string algo,
              float_of_int k /. float_of_int requests ))
          algos)
  in
  let figures =
    [
      {
        Spec.fid = "delayA";
        title = "delay-bounded admission: acceptance vs deadline";
        xlabel = "deadline (ms)";
        ylabel = "acceptance ratio";
        series =
          List.map
            (fun a ->
              let name = Adm.algorithm_to_string a in
              {
                Spec.label = name;
                cells =
                  Spec.cells ~sweep:0 deadlines (fun bound ->
                      [ (bound, "accept_" ^ name) ]);
              })
            algos;
        notes =
          [
            Printf.sprintf
              "n = %d, %d requests; link delay U[0.5, 2] ms, NF processing 0.1–1 ms"
              n requests;
          ];
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"delay"
    ~doc:"Extension: delay-bounded admission vs deadline tightness"
    ~smoke:(fun ~seed:_ -> instance ~n:40 ~requests:20 ())
    (fun ~seed:_ ~requests -> instance ?requests ())
