module Adm = Nfv_multicast.Admission

let algos = [ Adm.Online_cp; Adm.Online_cp_no_threshold; Adm.Sp ]

let nets =
  [
    ("GEANT", 'a', fun rng -> Exp_common.geant_network rng);
    ("AS1755", 'b', fun rng -> Exp_common.as1755_network rng);
  ]

let prefixes_of requests =
  List.sort_uniq compare
    (requests
    :: List.filter
         (fun p -> p <= requests)
         [ 50; 100; 150; 200; 250; 300; 600; 1000; 1500 ])

(* One pool point = one topology; the three algorithms share its network
   and request sequence, so they run together inside the point. An
   online algorithm's first [n] decisions do not depend on later
   arrivals, so one full-length run yields every prefix as a metric. *)
let point ~requests ~prefixes ~make_net ~rng =
  let net = make_net rng in
  let reqs = Workload.Gen.sequence rng net ~count:requests in
  List.concat_map
    (fun algo ->
      let stats = Adm.run net algo reqs in
      let name = Adm.algorithm_to_string algo in
      List.map
        (fun p ->
          ( Printf.sprintf "adm_%s@%d" name p,
            float_of_int (Adm.admitted_after stats p) ))
        prefixes)
    algos

let instance ?(requests = 1500) () =
  let prefixes = prefixes_of requests in
  let sweep =
    Spec.grid ~key:"fig9" nets (fun ~rng (_, _, make_net) ->
        point ~requests ~prefixes ~make_net ~rng)
  in
  let figures =
    List.map
      (fun (name, tag, _) ->
        {
          Spec.fid = Printf.sprintf "fig9%c" tag;
          title = "admitted requests vs sequence length in " ^ name;
          xlabel = "requests";
          ylabel = "admitted";
          series =
            List.map
              (fun algo ->
                let aname = Adm.algorithm_to_string algo in
                {
                  Spec.label = aname;
                  cells =
                    Spec.cells ~sweep:0 nets (fun (net, _, _) ->
                        if net <> name then []
                        else
                          List.map
                            (fun p ->
                              ( float_of_int p,
                                Printf.sprintf "adm_%s@%d" aname p ))
                            prefixes);
                })
              algos;
          notes =
            [
              Printf.sprintf "%s, K = 1, prefix counts of one %d-request run"
                name requests;
            ];
        })
      nets
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"fig9" ~doc:"Fig. 9: Online_CP vs SP in GEANT and AS1755"
    ~ledgers:[ Spec.admission_ledger ]
    ~smoke:(fun ~seed:_ -> instance ~requests:60 ())
    (fun ~seed:_ ~requests -> instance ?requests ())
