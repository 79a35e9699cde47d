module Adm = Nfv_multicast.Admission
module Dyn = Nfv_multicast.Dynamic
module R = Nfv_multicast.Restore
module Batch = Nfv_multicast.Batch
module Fault = Sdn.Fault

(* The fault families on the paper's two real topologies. None of them
   is in the paper (its Figs. 5-9 have no faults); they sweep the
   failure stack built on top of it.

   - churn: the paper's online model (arrival [i] stamped at time [i],
     never departing) with a seeded Fault timeline striking between
     arrivals; every evicted session goes through Repair's tier ladder
     (patch -> migrate -> re-admit) and restoration is off.
   - dynamic_churn: Poisson arrivals with exponential holding times
     through Dynamic.run, time-stamped link cuts in the same event
     queue, repair on eviction and a restoration pass over the dropped
     backlog at every heal. Each topology is swept under independent
     single-link cuts and SRLG group cuts drawn by the same generator —
     srlg_timeline with singleton groups IS the matched independent
     baseline, so the two rows differ only in correlation.
   - avail, restore: dynamic_churn's grid re-run once per treatment (an
     SRLG-exposure surcharge alpha; a restoration policy). Every sweep
     runs under dynamic_churn's key, so Pool.point_seed hands matched
     points the same RNG — same network, trace, partition and timeline —
     and the treatment is the only difference. The baseline treatment
     (alpha = 0, which passes no ?avail at all; the default policy) is
     byte-for-byte the dynamic_churn cell, which test_specs asserts.

   What the treatments should show: with alpha > 0, Online_CP's link
   weights carry an [alpha × exposure(group)] surcharge that steers trees
   away from heavily committed shared-risk groups before any fault
   fires, so one group cut evicts fewer sessions — survival rises at
   some acceptance cost. Under independent cuts the groups are
   singletons and the surcharge degenerates to per-link load pricing:
   those figures are the matched ablation. Restoration policies decide
   who goes first when the returned capacity is scarce. On the canonical
   grid they tie: outages (horizon/4) outlast the mean holding time
   (25), so a dropped session almost always departs before its capacity
   returns and every policy restores the same feasible set. The
   *stressed* GEANT cells are the treatment: holdings of half the
   horizon against outages healing after horizon/8, so drops outlive
   their fault and the heal-time pass is contended. They ride after the
   canonical cells, so the canonical indices (and their seeds) stay
   dynamic_churn's.

   Tier columns are repair.* counter deltas and latency columns
   histogram quantiles, exact under the fake clock: every column is
   byte-identical across --jobs settings. *)

let nets =
  [ ("GEANT", Exp_common.geant_network); ("AS1755", Exp_common.as1755_network) ]

let rates = [ 0.05; 0.1; 0.2 ]
let n_rates = List.length rates

(* two load levels: the horizon and its half, so --requests scales the
   whole sweep down for smoke runs *)
let load_divisors = [ 2; 1 ]
let loads_of requests = List.map (fun d -> max 1 (requests / d)) load_divisors

let tiers =
  [
    ("patched", "repair.patched");
    ("migrated", "repair.migrated");
    ("readmitted", "repair.readmitted");
    ("dropped", "repair.dropped");
  ]

let events_of ~rate ~load = int_of_float (Float.round (rate *. float_of_int load))
let tag i = Char.chr (Char.code 'A' + i)

(* Probes over one run's repair telemetry, created before the run; the
   returned reader turns the run's stats into the repair metrics. *)
let repair_probes () =
  let tier_probes =
    List.map (fun (name, counter) -> (name, Runner.counter_probe counter)) tiers
  in
  let latency = Runner.span_probe "repair.attempt" in
  fun (s : Dyn.stats) ->
    (* every eviction is one repair attempt *)
    let survival =
      if s.Dyn.evicted = 0 then 1.0
      else float_of_int s.Dyn.repaired /. float_of_int s.Dyn.evicted
    in
    ("survival", survival)
    :: List.map
         (fun (name, p) -> (name, float_of_int (Runner.counter_delta p)))
         tier_probes
    @ [
        ("p50_ms", Runner.span_quantile_ms latency 0.5);
        ("p99_ms", Runner.span_quantile_ms latency 0.99);
      ]

(* One series per metric over the failure rates. *)
let rate_series ~label ~sweep ~point metrics =
  List.map
    (fun m ->
      {
        Spec.label = label m;
        cells =
          List.mapi
            (fun ri x -> { Spec.x; sweep; point = point ri; metric = m })
            rates;
      })
    metrics

let family ~id ~doc ~default_requests ~ledgers ~smoke instance =
  Spec.make ~id ~doc ~ledgers
    ~smoke:(fun ~seed:_ -> instance smoke)
    (fun ~seed:_ ~requests ->
      instance (Option.value ~default:default_requests requests))

(* ---- churn: the online model, faults at arrival indices ---- *)

(* Failures are drawn at arrival indices: one stamped [i] strikes once
   arrival [i] was decided. Each is then nudged into the open interval
   (i, i + 1) by its rank, so strikes never tie with an arrival or with
   each other and fire in timeline order; strikes at or past the last
   arrival (late heals included) never fire. *)
let arrival_indexed_timeline ~rng ~load ~events net =
  let due =
    Fault.random_timeline ~heal_after:(max 1 (load / 4)) ~rng ~slots:load
      ~events net
    |> List.filter (fun (s : Fault.stamped) -> s.Fault.at < float_of_int load)
  in
  let slot k = float_of_int (k + 1) /. float_of_int (List.length due + 1) in
  List.mapi
    (fun k (s : Fault.stamped) -> { s with Fault.at = s.Fault.at +. slot k })
    due

let online_point ~make_net ~load ~rate ~rng =
  let net = make_net rng in
  let reqs = Workload.Gen.sequence rng net ~count:load in
  let timeline =
    arrival_indexed_timeline ~rng ~load ~events:(events_of ~rate ~load) net
  in
  let trace =
    List.mapi
      (fun i request -> { Dyn.at = float_of_int i; holding = infinity; request })
      reqs
  in
  let read_repair = repair_probes () in
  (* the network is fresh, so there is nothing to reset *)
  read_repair
    (Dyn.run ~reset:false
       ~faults:(Dyn.make_faults ~restore:None timeline)
       net Adm.Online_cp trace)

let churn_instance requests =
  let loads = loads_of requests in
  let params =
    Array.of_list
      (List.concat_map
         (fun (_, make_net) ->
           List.concat_map
             (fun load -> List.map (fun rate -> (make_net, load, rate)) rates)
             loads)
         nets)
  in
  let metrics = [ "survival" ] @ List.map fst tiers @ [ "p50_ms"; "p99_ms" ] in
  let figure ni (name, _) =
    {
      Spec.fid = Printf.sprintf "churn%c" (tag ni);
      title = "Failure churn: survival and repair tiers in " ^ name;
      xlabel = "failure events per arrival";
      ylabel = "survival rate / repairs / latency (ms)";
      series =
        List.concat
          (List.mapi
             (fun li load ->
               rate_series
                 ~label:(fun m -> Printf.sprintf "%s@%d" m load)
                 ~sweep:0
                 ~point:(fun ri ->
                   (((ni * List.length loads) + li) * n_rates) + ri)
                 metrics)
             loads);
      notes =
        [
          Printf.sprintf
            "%s, Online_CP + Fault.random_timeline at arrival indices \
             (heal_after = load/4); tier columns are repair.* counter deltas, \
             latency columns are p50/p99 of the repair.attempt histogram"
            name;
        ];
    }
  in
  {
    Spec.sweeps =
      [
        {
          Spec.key = "churn";
          points = Array.length params;
          point =
            (fun ~rng i ->
              let make_net, load, rate = params.(i) in
              online_point ~make_net ~load ~rate ~rng);
        };
      ];
    figures = List.mapi figure nets;
  }

let churn =
  family ~id:"churn"
    ~doc:
      "Churn: failure injection + tiered repair, survival and latency vs \
       failure rate on GEANT/AS1755"
    ~default_requests:800
    ~ledgers:[ Spec.admission_ledger; Spec.repair_ledger ]
    ~smoke:64 churn_instance

(* ---- the Poisson families: one grid, one point, a treatment per sweep ---- *)

type treatment = { alpha : float; restore : R.t }

type cell = {
  make_net : Topology.Rng.t -> Sdn.Network.t;
  srlg : bool;  (** SRLG group cuts, or matched singleton groups *)
  load : int;
  rate : float;
  holding : float;  (** mean holding time *)
  heal_div : float;  (** outages heal [horizon / heal_div] after striking *)
}

let baseline = { alpha = 0.0; restore = R.default }
let models = [ false; true ]
let mean_holding = 25.0
let srlg_groups = 8

(* One matched point: network, trace, partition and timeline from [rng],
   then Dynamic.run under the treatment. The result carries every
   metric the three families tabulate; each figure picks by name. *)
let point t c ~rng =
  let attempted = Runner.counter_probe "restoration.attempted" in
  let failed = Runner.counter_probe "restoration.failed" in
  let pass = Runner.span_probe "restoration.pass" in
  let net = c.make_net rng in
  let trace =
    Dyn.poisson_trace rng net ~rate:1.0 ~mean_holding:c.holding ~count:c.load
  in
  let horizon =
    List.fold_left (fun acc (a : Dyn.arrival) -> Float.max acc a.Dyn.at) 1.0
      trace
  in
  let groups =
    if c.srlg then Fault.srlg_partition ~groups:srlg_groups ~rng net
    else Array.init (Sdn.Network.m net) (fun e -> [ e ])
  in
  let timeline =
    Fault.srlg_timeline ~heal_after:(horizon /. c.heal_div) ~rng ~horizon
      ~events:(events_of ~rate:c.rate ~load:c.load)
      groups
  in
  (* pricing over the same partition the timeline cuts; building it
     draws no randomness *)
  let avail =
    if t.alpha > 0.0 then
      Some (Nfv_multicast.Online_cp.make_avail ~alpha:t.alpha net groups)
    else None
  in
  let read_repair = repair_probes () in
  let s =
    Dyn.run ?avail
      ~faults:(Dyn.make_faults ~restore:(Some t.restore) timeline)
      net Adm.Online_cp trace
  in
  let restored_frac =
    if s.Dyn.dropped = 0 then 1.0
    else float_of_int s.Dyn.restored /. float_of_int s.Dyn.dropped
  in
  [
    ("accept", s.Dyn.acceptance_ratio);
    ("restored", float_of_int s.Dyn.restored);
    ("restored_frac", restored_frac);
    ("attempted", float_of_int (Runner.counter_delta attempted));
    ("failed", float_of_int (Runner.counter_delta failed));
    ("pass_p50_ms", Runner.span_quantile_ms pass 0.5);
    ("pass_p99_ms", Runner.span_quantile_ms pass 0.99);
  ]
  @ read_repair s

(* The canonical cells: nets × models × loads × rates, in exactly this
   nesting order; index with [point_index]. *)
let grid requests =
  List.concat_map
    (fun (_, make_net) ->
      List.concat_map
        (fun srlg ->
          List.concat_map
            (fun load ->
              List.map
                (fun rate ->
                  { make_net; srlg; load; rate; holding = mean_holding;
                    heal_div = 4.0 })
                rates)
            (loads_of requests))
        models)
    nets

let point_index ~ni ~mi ~li ~ri =
  let per_model = List.length load_divisors * n_rates in
  (((ni * List.length models) + mi) * per_model) + (li * n_rates) + ri

(* one sweep per treatment, all under the matched-RNG key *)
let sweeps cells treatments =
  let cells = Array.of_list cells in
  List.map
    (fun t ->
      {
        Spec.key = "dynamic_churn";
        points = Array.length cells;
        point = (fun ~rng i -> point t cells.(i) ~rng);
      })
    treatments

(* The nets × models figures: figure [prefix ^ tag] with series
   [<metric>@<infix><load>] per treatment (sweep) in [infixes], each
   followed by whatever [extra] adds for it. *)
let figures ~prefix ~title ~ylabel ~metrics ~infixes
    ?(extra = fun ~ni:_ ~mi:_ ~sweep:_ _ -> []) ~note requests =
  List.concat
    (List.mapi
       (fun ni (name, _) ->
         List.mapi
           (fun mi srlg ->
             let tag = tag ((ni * List.length models) + mi) in
             let series sweep infix =
               List.concat
                 (List.mapi
                    (fun li load ->
                      rate_series
                        ~label:(fun m -> Printf.sprintf "%s@%s%d" m infix load)
                        ~sweep
                        ~point:(fun ri -> point_index ~ni ~mi ~li ~ri)
                        metrics)
                    (loads_of requests))
               @ extra ~ni ~mi ~sweep infix
             in
             {
               Spec.fid = Printf.sprintf "%s%c" prefix tag;
               title =
                 Printf.sprintf title
                   (if srlg then "SRLG" else "independent")
                   name;
               xlabel = "failure events per arrival";
               ylabel;
               series = List.concat (List.mapi series infixes);
               notes = [ note ~ni ~name ~srlg ~tag ];
             })
           models)
       nets)

let dynamic_churn_instance requests =
  {
    Spec.sweeps = sweeps (grid requests) [ baseline ];
    figures =
      figures ~prefix:"dynch"
        ~title:
          "Dynamic churn (%s failures): survival, restoration and repair \
           tiers in %s"
        ~ylabel:"rate / repairs / latency (ms)"
        ~metrics:
          ([ "accept"; "survival" ]
          @ List.map fst tiers
          @ [ "restored"; "restored_frac"; "p50_ms"; "p99_ms" ])
        ~infixes:[ "" ]
        ~note:(fun ~ni:_ ~name ~srlg ~tag:_ ->
          Printf.sprintf
            "%s, Online_CP, Poisson arrivals (rate 1, mean holding %g), %s \
             link cuts healing horizon/4 later; restoration order \
             smallest-first; tier columns are repair.* counter deltas, \
             latency columns p50/p99 of the repair.attempt histogram"
            name mean_holding
            (if srlg then
               Printf.sprintf "correlated (<= %d SRLG groups)" srlg_groups
             else "independent single-"))
        requests;
  }

let alphas = [ 0.0; 1.0; 4.0 ]

let avail_instance requests =
  {
    Spec.sweeps =
      sweeps (grid requests)
        (List.map (fun alpha -> { baseline with alpha }) alphas);
    figures =
      figures ~prefix:"avail"
        ~title:
          "Availability-aware admission (%s failures): exposure surcharge \
           alpha on %s"
        ~ylabel:"rate / fraction / latency (ms)"
        ~metrics:[ "accept"; "survival"; "restored_frac"; "p50_ms"; "p99_ms" ]
        ~infixes:(List.map (Printf.sprintf "a%g@") alphas)
        ~note:(fun ~ni:_ ~name ~srlg ~tag ->
          Printf.sprintf
            "%s, Online_CP with avail pricing (alpha in {%s}), \
             %s; matched RNG with dynamic_churn (same sweep key), so alpha=0 \
             rows are byte-identical to the dynch%c cells of the same metric"
            name
            (String.concat ", " (List.map (Printf.sprintf "%g") alphas))
            (if srlg then
               Printf.sprintf "correlated (<= %d SRLG groups) cuts" srlg_groups
             else "independent single-link cuts")
            tag)
        requests;
  }

let policies =
  [
    R.default;
    R.make ~policy:(R.Replay Batch.Arrival) ();
    R.make ~policy:(R.Replay Batch.Largest_first) ();
    R.make ~policy:(R.Replay Batch.Cheapest_first) ();
    R.make ~policy:(R.Knapsack R.Volume) ();
    R.make ~policy:(R.Knapsack R.Priced) ();
    R.make ~policy:R.Deadline ();
    R.make ~policy:(R.Knapsack R.Priced) ~trigger:R.Heal_or_depart ();
  ]

(* stressed-cell shape (see the header comment); the rates equal the
   canonical ones so every figure row is dense *)
let stressed_heal_div = 8.0
let stressed_holding_frac = 0.5

let restore_instance requests =
  let canon = grid requests in
  let n_canon = List.length canon in
  (* GEANT only, both failure models, full offered load *)
  let load = List.fold_left max 1 (loads_of requests) in
  let stressed =
    List.concat_map
      (fun srlg ->
        List.map
          (fun rate ->
            {
              make_net = Exp_common.geant_network;
              srlg;
              load;
              rate;
              holding = stressed_holding_frac *. float_of_int load;
              heal_div = stressed_heal_div;
            })
          rates)
      models
  in
  let metrics =
    [
      "accept"; "restored"; "restored_frac"; "attempted"; "failed";
      "pass_p50_ms"; "pass_p99_ms";
    ]
  in
  let stressed_series ~ni ~mi ~sweep infix =
    if ni <> 0 then []
    else
      rate_series
        ~label:(fun m -> Printf.sprintf "%s@%sstressed" m infix)
        ~sweep
        ~point:(fun ri -> n_canon + (mi * n_rates) + ri)
        metrics
  in
  {
    Spec.sweeps =
      sweeps (canon @ stressed)
        (List.map (fun restore -> { baseline with restore }) policies);
    figures =
      figures ~prefix:"restore"
        ~title:
          "Restoration policy (%s failures): backlog selection at heal time \
           on %s"
        ~ylabel:"rate / count / latency (ms)" ~metrics
        ~infixes:(List.map (fun p -> R.to_string p ^ "@") policies)
        ~extra:stressed_series
        ~note:(fun ~ni ~name ~srlg:_ ~tag ->
          Printf.sprintf
            "%s, Online_CP, policies {%s}; matched RNG with dynamic_churn \
             (same sweep key), so the replay-smallest-first rows are \
             byte-identical to the dynch%c cells of the same metric; \
             attempted = restored + failed per policy, latency columns \
             p50/p99 of the restoration.pass histogram%s"
            name
            (String.concat ", " (List.map R.to_string policies))
            tag
            (if ni = 0 then
               Printf.sprintf
                 "; @stressed series: full offered load with mean holding %g \
                  x horizon and outages healing after horizon/%g, so drops \
                  outlive their fault and the heal-time pass is contended \
                  (rates %s)"
                 stressed_holding_frac stressed_heal_div
                 (String.concat ", " (List.map string_of_float rates))
             else ""))
        requests;
  }

(* avail and restore share dynamic_churn's scales, so their matched
   cells line up in the smoke runs too *)
let poisson_family ~id ~doc instance =
  family ~id ~doc ~default_requests:400
    ~ledgers:
      [ Spec.admission_ledger; Spec.repair_ledger; Spec.restoration_ledger ]
    ~smoke:16 instance

let dynamic_churn =
  poisson_family ~id:"dynamic_churn"
    ~doc:
      "Failure-aware dynamic churn: Poisson arrivals/departures with \
       time-stamped faults, tiered repair and heal-triggered restoration, \
       independent vs SRLG, on GEANT/AS1755"
    dynamic_churn_instance

let avail =
  poisson_family ~id:"avail"
    ~doc:
      "Availability sweep: dynamic churn re-run under SRLG-exposure \
       surcharges (alpha x failure rate x {independent, SRLG}) on \
       GEANT/AS1755, matched-RNG with dynamic_churn"
    avail_instance

let restore =
  poisson_family ~id:"restore"
    ~doc:
      "Restoration policy sweep: dynamic churn re-run under pluggable \
       backlog selection (order replays, knapsack value-density, \
       deadline-aware, depart-triggered) on GEANT/AS1755, matched-RNG with \
       dynamic_churn, plus stressed GEANT cells where the heal-time pass \
       is contended"
    restore_instance
