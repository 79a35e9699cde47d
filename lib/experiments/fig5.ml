module A = Nfv_multicast.Appro_multi
module O = Nfv_multicast.One_server

let ratios = [ (0.05, 'a', 'd'); (0.1, 'b', 'e'); (0.2, 'c', 'f') ]
let default_sizes = [ 50; 100; 150; 200; 250 ]

(* the requests come from the rng the network was built from, so a
   point derives everything — topology, servers, requests — from the rng
   the pool hands it: points are independent and the pool can run them
   on any domain in any order *)
let point ~requests ~ratio ~rng net =
  let spec = { Workload.Gen.default_spec with dmax_ratio = Some ratio } in
  let reqs = Workload.Gen.sequence ~spec rng net ~count:requests in
  let pa = Runner.span_probe "appro_multi.solve" in
  let po = Runner.span_probe "one_server.solve" in
  let ca = ref [] and co = ref [] in
  List.iter
    (fun r ->
      (match A.solve ~k:3 net r with
      | Ok res -> ca := res.A.cost :: !ca
      | Error _ -> ());
      match O.solve net r with
      | Ok res -> co := res.O.cost :: !co
      | Error _ -> ())
    reqs;
  [
    ("cost_appro", Exp_common.mean !ca);
    ("cost_one", Exp_common.mean !co);
    ("ms_appro", Runner.span_mean_ms pa);
    ("ms_one", Runner.span_mean_ms po);
  ]

let instance ?(requests = 30) ?(sizes = default_sizes) () =
  (* one data point = one (destination ratio, network size) pair *)
  let params =
    List.concat_map
      (fun (ratio, _, _) -> List.map (fun n -> (ratio, n)) sizes)
      ratios
  in
  let sweep =
    Spec.grid ~key:"fig5" params (fun ~rng (ratio, n) ->
        point ~requests ~ratio ~rng (Exp_common.network rng ~n))
  in
  let figures =
    List.concat_map
      (fun (ratio, cost_tag, time_tag) ->
        let row metric =
          Spec.cells ~sweep:0 params (fun (r, n) ->
              if r = ratio then [ (float_of_int n, metric) ] else [])
        in
        let mk fid title ylabel m1 m2 =
          {
            Spec.fid;
            title;
            xlabel = "|V|";
            ylabel;
            series =
              [
                { Spec.label = "Appro_Multi"; cells = row m1 };
                { Spec.label = "Alg_One_Server"; cells = row m2 };
              ];
            notes =
              [
                Printf.sprintf
                  "Dmax/|V| = %.2f, K = 3, %d requests averaged per point"
                  ratio requests;
              ];
          }
        in
        [
          mk
            (Printf.sprintf "fig5%c" cost_tag)
            "operational cost vs network size" "mean cost" "cost_appro"
            "cost_one";
          mk
            (Printf.sprintf "fig5%c" time_tag)
            "running time vs network size" "ms per request" "ms_appro"
            "ms_one";
        ])
      ratios
  in
  let figures =
    List.sort (fun a b -> compare a.Spec.fid b.Spec.fid) figures
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"fig5"
    ~doc:"Fig. 5: Appro_Multi vs Alg_One_Server on random networks"
    ~smoke:(fun ~seed:_ -> instance ~requests:2 ~sizes:[ 30; 50 ] ())
    (fun ~seed:_ ~requests -> instance ?requests ())
