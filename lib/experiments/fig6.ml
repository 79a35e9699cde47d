let ratios = [ 0.05; 0.1; 0.15; 0.2 ]

let nets =
  [
    ("GEANT", 'a', 'c', fun rng -> Exp_common.geant_network rng);
    ("AS1755", 'b', 'd', fun rng -> Exp_common.as1755_network rng);
  ]

let instance ?(requests = 100) () =
  (* one data point = one (topology, destination ratio) pair *)
  let params =
    List.concat_map
      (fun (name, _, _, make_net) ->
        List.map (fun r -> (name, make_net, r)) ratios)
      nets
  in
  let sweep =
    Spec.grid ~key:"fig6" params (fun ~rng (_, make_net, ratio) ->
        Fig5.point ~requests ~ratio ~rng (make_net rng))
  in
  let figures =
    List.concat_map
      (fun (name, cost_tag, time_tag, _) ->
        let row metric =
          Spec.cells ~sweep:0 params (fun (net, _, r) ->
              if net = name then [ (r, metric) ] else [])
        in
        let mk fid title ylabel m1 m2 =
          {
            Spec.fid;
            title;
            xlabel = "Dmax/|V|";
            ylabel;
            series =
              [
                { Spec.label = "Appro_Multi"; cells = row m1 };
                { Spec.label = "Alg_One_Server"; cells = row m2 };
              ];
            notes =
              [
                Printf.sprintf "%s, K = 3, %d requests averaged per point" name
                  requests;
              ];
          }
        in
        [
          mk
            (Printf.sprintf "fig6%c" cost_tag)
            ("operational cost in " ^ name)
            "mean cost" "cost_appro" "cost_one";
          mk
            (Printf.sprintf "fig6%c" time_tag)
            ("running time in " ^ name)
            "ms per request" "ms_appro" "ms_one";
        ])
      nets
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"fig6"
    ~doc:"Fig. 6: Appro_Multi vs Alg_One_Server in GEANT and AS1755"
    ~smoke:(fun ~seed:_ -> instance ~requests:2 ())
    (fun ~seed:_ ~requests -> instance ?requests ())
