module Adm = Nfv_multicast.Admission
module Dyn = Nfv_multicast.Dynamic
module Fault = Sdn.Fault

(* Failure-aware dynamic churn on the paper's two real topologies.

   One pool point = one (topology, failure model, offered load, failure
   rate): drive [load] Poisson arrivals with exponential holding times
   through Dynamic.run while a seeded time-stamped Fault timeline fires
   inside the same event queue. Every eviction goes through Repair's
   tier ladder; every heal triggers a proactive restoration pass over
   the dropped backlog (Batch.Smallest_first order). The failure model
   is either independent single-link cuts or SRLG group cuts over the
   same generator — srlg_timeline with singleton groups IS the matched
   independent baseline, so the two rows differ only in correlation. *)

let nets =
  [
    ("GEANT", 'A', fun rng -> Exp_common.geant_network rng);
    ("AS1755", 'C', fun rng -> Exp_common.as1755_network rng);
  ]

let models = [ ("ind", false); ("srlg", true) ]
let rates = [ 0.05; 0.1; 0.2 ]
let default_requests = 400

(* the reduced scale avail and restore share, so their matched cells
   line up with these in the smoke runs too *)
let smoke_requests = 16

let mean_holding = 25.0
let mean_holding_default = mean_holding
let srlg_groups = 8

(* two load levels per (topology, model): --requests and its half, so
   smoke runs scale the whole sweep down *)
let loads_of requests = List.map (fun d -> max 1 (requests / d)) [ 2; 1 ]

let tiers =
  [
    ("patched", "repair.patched");
    ("migrated", "repair.migrated");
    ("readmitted", "repair.readmitted");
    ("dropped", "repair.dropped");
  ]

let metrics =
  [ "accept"; "survival" ]
  @ List.map fst tiers
  @ [ "restored"; "restored_frac"; "p50_ms"; "p99_ms" ]

let run_point ?(alpha = 0.0) ?restore ?mean_holding
    ?(heal_div = 4.0) ~make_net ~srlg ~load ~rate ~rng () =
  let mean_holding = Option.value ~default:mean_holding_default mean_holding in
  let net = make_net rng in
  let trace = Dyn.poisson_trace rng net ~rate:1.0 ~mean_holding ~count:load in
  let horizon =
    List.fold_left (fun acc (a : Dyn.arrival) -> Float.max acc a.Dyn.at) 1.0
      trace
  in
  let groups =
    if srlg then Fault.srlg_partition ~groups:srlg_groups ~rng net
    else Array.init (Sdn.Network.m net) (fun e -> [ e ])
  in
  let events = int_of_float (Float.round (rate *. float_of_int load)) in
  let timeline =
    Fault.srlg_timeline ~heal_after:(horizon /. heal_div) ~rng ~horizon ~events
      groups
  in
  (* availability-aware pricing over the *same* partition the timeline
     cuts (for "ind", the matched singleton groups). Building the avail
     consumes no randomness, and [alpha = 0] passes [None], so the
     baseline point is bit-for-bit the pre-avail run. *)
  let avail =
    if alpha > 0.0 then
      Some (Nfv_multicast.Online_cp.make_avail ~alpha net groups)
    else None
  in
  let tier_probes =
    List.map (fun (name, counter) -> (name, Runner.counter_probe counter)) tiers
  in
  let latency = Runner.span_probe "repair.attempt" in
  (* [restore] swaps the restoration policy of the pass; [None] keeps
     make_faults' default (the historical smallest-first heal-only
     pass), so baseline points are bit-for-bit the pre-policy run *)
  let faults =
    match restore with
    | None -> Dyn.make_faults timeline
    | Some policy -> Dyn.make_faults ~restore:(Some policy) timeline
  in
  let s = Dyn.run ?avail ~faults net Adm.Online_cp trace in
  let tier_counts =
    List.map (fun (name, p) -> (name, Runner.counter_delta p)) tier_probes
  in
  let survival =
    if s.Dyn.evicted = 0 then 1.0
    else float_of_int s.Dyn.repaired /. float_of_int s.Dyn.evicted
  in
  let restored_frac =
    if s.Dyn.dropped = 0 then 1.0
    else float_of_int s.Dyn.restored /. float_of_int s.Dyn.dropped
  in
  [
    ("accept", s.Dyn.acceptance_ratio);
    ("survival", survival);
  ]
  @ List.map (fun (n, c) -> (n, float_of_int c)) tier_counts
  @ [
      ("restored", float_of_int s.Dyn.restored);
      ("restored_frac", restored_frac);
      ("p50_ms", Runner.span_quantile_ms latency 0.5);
      ("p99_ms", Runner.span_quantile_ms latency 0.99);
    ]

let sweep_key = "dynamic_churn"

(* The canonical point grid: nets × models × loads × rates, in exactly
   this nesting order. [Avail] re-runs the same grid under non-zero
   alphas through sweeps sharing [sweep_key], so Pool.point_seed hands
   each matched point the same RNG — same network, trace, partition and
   timeline — and only the pricing differs. *)
let grid requests =
  let loads = loads_of requests in
  Array.of_list
    (List.concat_map
       (fun (_, _, make_net) ->
         List.concat_map
           (fun (_, srlg) ->
             List.concat_map
               (fun load ->
                 List.map (fun rate -> (make_net, srlg, load, rate)) rates)
               loads)
           models)
       nets)

let point_index ~ni ~mi ~li ~ri =
  let n_rates = List.length rates in
  let per_model = 2 (* loads *) * n_rates in
  let per_net = List.length models * per_model in
  (ni * per_net) + (mi * per_model) + (li * n_rates) + ri

let instance ?(requests = default_requests) () =
  let loads = loads_of requests in
  let params = grid requests in
  let sweep =
    {
      Spec.key = sweep_key;
      points = Array.length params;
      point =
        (fun ~rng i ->
          let make_net, srlg, load, rate = params.(i) in
          run_point ~make_net ~srlg ~load ~rate ~rng ());
    }
  in
  let figures =
    List.concat_map
      (fun (ni, (name, tag, _)) ->
        List.map
          (fun (mi, (model, _)) ->
            {
              Spec.fid =
                Printf.sprintf "dynch%c" (Char.chr (Char.code tag + mi));
              title =
                Printf.sprintf
                  "Dynamic churn (%s failures): survival, restoration and \
                   repair tiers in %s"
                  (if model = "srlg" then "SRLG" else "independent")
                  name;
              xlabel = "failure events per arrival";
              ylabel = "rate / repairs / latency (ms)";
              series =
                List.concat_map
                  (fun (li, load) ->
                    List.map
                      (fun m ->
                        {
                          Spec.label = Printf.sprintf "%s@%d" m load;
                          cells =
                            List.mapi
                              (fun ri rate ->
                                {
                                  Spec.x = rate;
                                  sweep = 0;
                                  point = point_index ~ni ~mi ~li ~ri;
                                  metric = m;
                                })
                              rates;
                        })
                      metrics)
                  (List.mapi (fun li l -> (li, l)) loads);
              notes =
                [
                  Printf.sprintf
                    "%s, Online_CP, Poisson arrivals (rate 1, mean holding \
                     %g), %s link cuts healing horizon/4 later; restoration \
                     order smallest-first; tier columns are repair.* \
                     counter deltas, latency columns p50/p99 of the \
                     repair.attempt histogram"
                    name mean_holding
                    (if model = "srlg" then
                       Printf.sprintf "correlated (<= %d SRLG groups)"
                         srlg_groups
                     else "independent single-");
                ];
            })
          (List.mapi (fun mi m -> (mi, m)) models))
      (List.mapi (fun ni n -> (ni, n)) nets)
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"dynamic_churn"
    ~doc:
      "Failure-aware dynamic churn: Poisson arrivals/departures with \
       time-stamped faults, tiered repair and heal-triggered restoration, \
       independent vs SRLG, on GEANT/AS1755"
    ~figure_ids:[ "dynchA"; "dynchB"; "dynchC"; "dynchD" ]
    ~default_requests
    ~ledgers:[ Spec.repair_ledger; Spec.restoration_ledger ]
    ~smoke:(fun ~seed:_ -> instance ~requests:smoke_requests ())
    (fun ~seed:_ ~requests -> instance ?requests ())

let run ?(seed = 1) ?requests () = Runner.figures ~seed (instance ?requests ())
