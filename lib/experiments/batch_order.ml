module B = Nfv_multicast.Batch

let orders = B.[ Arrival; Smallest_first; Largest_first; Cheapest_first ]

(* One pool point = one batch size; the ordering policies pack the same
   batch, so they run together inside the point. *)

let instance ?(n = 80) ?(sizes = [ 100; 200; 400; 800 ]) () =
  let sweep =
    Spec.grid ~key:"batch" sizes (fun ~rng batch ->
        let net = Exp_common.network rng ~n in
        let reqs = Workload.Gen.sequence rng net ~count:batch in
        List.map
          (fun o ->
            ( "adm_" ^ B.order_to_string o,
              float_of_int (B.plan ~k:2 net reqs o).B.admitted ))
          orders)
  in
  let figures =
    [
      {
        Spec.fid = "batchA";
        title = "batch admission: requests packed per ordering policy";
        xlabel = "batch size";
        ylabel = "admitted";
        series =
          List.map
            (fun o ->
              let name = B.order_to_string o in
              {
                Spec.label = name;
                cells =
                  Spec.cells ~sweep:0 sizes (fun batch ->
                      [ (float_of_int batch, "adm_" ^ name) ]);
              })
            orders;
        notes =
          [ Printf.sprintf "n = %d, K = 2, Appro_Multi_Cap greedy admission" n ];
      };
    ]
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"batch"
    ~doc:"Extension: offline batch admission order comparison"
    ~smoke:(fun ~seed:_ -> instance ~n:30 ~sizes:[ 15; 30 ] ())
    (fun ~seed:_ ~requests:_ -> instance ())
