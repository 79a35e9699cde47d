(* Availability sweep: dynamic churn under SRLG-exposure pricing.

   Re-runs Dynamic_churn's exact grid (GEANT/AS1755 × {ind, srlg} ×
   two loads × three failure rates) once per surcharge level alpha.
   Every sweep uses Dynamic_churn.sweep_key, so Pool.point_seed hands
   matched points the same RNG: same network, same Poisson trace, same
   partition, same fault timeline — the alpha column is the only
   treatment. In particular the alpha = 0 sweep is byte-for-byte the
   dynamic_churn baseline (run_point passes no ?avail at all), which
   test_specs.ml asserts on the smoke instances.

   What the treatment should show: with alpha > 0, Online_CP's link
   weights carry an [alpha × exposure(group)] surcharge, steering trees
   away from heavily-committed shared-risk groups *before* any fault
   fires. Under correlated (srlg) cuts that spreads sessions across
   groups, so one group cut evicts fewer sessions and repair finds more
   spare capacity — survival rises — at the cost of longer (pricier)
   trees and therefore somewhat lower acceptance. Under independent
   cuts the groups are singletons and the surcharge degenerates to
   per-link load pricing, a much weaker signal: those figures are the
   matched ablation. *)

let alphas = [ 0.0; 1.0; 4.0 ]
let metrics = [ "accept"; "survival"; "restored_frac"; "p50_ms"; "p99_ms" ]

let instance ?(requests = Dynamic_churn.default_requests) () =
  let loads = Dynamic_churn.loads_of requests in
  let params = Dynamic_churn.grid requests in
  (* one sweep per alpha, all under the matched-RNG key *)
  let sweeps =
    List.map
      (fun alpha ->
        {
          Spec.key = Dynamic_churn.sweep_key;
          points = Array.length params;
          point =
            (fun ~rng i ->
              let make_net, srlg, load, rate = params.(i) in
              Dynamic_churn.run_point ~alpha ~make_net ~srlg ~load ~rate ~rng
                ());
        })
      alphas
  in
  let figures =
    List.concat_map
      (fun (ni, (name, tag, _)) ->
        List.map
          (fun (mi, (model, _)) ->
            {
              Spec.fid =
                Printf.sprintf "avail%c" (Char.chr (Char.code tag + mi));
              title =
                Printf.sprintf
                  "Availability-aware admission (%s failures): exposure \
                   surcharge alpha on %s"
                  (if model = "srlg" then "SRLG" else "independent")
                  name;
              xlabel = "failure events per arrival";
              ylabel = "rate / fraction / latency (ms)";
              series =
                List.concat_map
                  (fun (ai, alpha) ->
                    List.concat_map
                      (fun (li, load) ->
                        List.map
                          (fun m ->
                            {
                              Spec.label =
                                Printf.sprintf "%s@a%g@%d" m alpha load;
                              cells =
                                List.mapi
                                  (fun ri rate ->
                                    {
                                      Spec.x = rate;
                                      sweep = ai;
                                      point =
                                        Dynamic_churn.point_index ~ni ~mi ~li
                                          ~ri;
                                      metric = m;
                                    })
                                  Dynamic_churn.rates;
                            })
                          metrics)
                      (List.mapi (fun li l -> (li, l)) loads))
                  (List.mapi (fun ai a -> (ai, a)) alphas);
              notes =
                [
                  Printf.sprintf
                    "%s, Online_CP with avail pricing (alpha in {%s}, no \
                     reserve), %s; matched RNG with dynamic_churn (same \
                     sweep key), so alpha=0 rows are byte-identical to the \
                     dynch%c cells of the same metric"
                    name
                    (String.concat ", " (List.map (Printf.sprintf "%g") alphas))
                    (if model = "srlg" then
                       Printf.sprintf "correlated (<= %d SRLG groups) cuts"
                         Dynamic_churn.srlg_groups
                     else "independent single-link cuts")
                    (Char.chr (Char.code tag + mi));
                ];
            })
          (List.mapi (fun mi m -> (mi, m)) Dynamic_churn.models))
      (List.mapi (fun ni n -> (ni, n)) Dynamic_churn.nets)
  in
  { Spec.sweeps; figures }

let spec =
  Spec.make ~id:"avail"
    ~doc:
      "Availability sweep: dynamic churn re-run under SRLG-exposure \
       surcharges (alpha x failure rate x {independent, SRLG}) on \
       GEANT/AS1755, matched-RNG with dynamic_churn"
    ~figure_ids:[ "availA"; "availB"; "availC"; "availD" ]
    ~default_requests:Dynamic_churn.default_requests
    ~ledgers:[ Spec.repair_ledger; Spec.restoration_ledger ]
    ~smoke:(fun ~seed:_ -> instance ~requests:Dynamic_churn.smoke_requests ())
    (fun ~seed:_ ~requests -> instance ?requests ())

let run ?(seed = 1) ?requests () = Runner.figures ~seed (instance ?requests ())
