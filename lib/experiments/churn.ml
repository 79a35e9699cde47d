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

(* two load levels: the horizon and its half, so --requests scales the
   whole sweep down for smoke runs; a horizon of 1 has one level *)
let loads_of requests =
  List.sort_uniq compare (List.map (fun d -> max 1 (requests / d)) [ 2; 1 ])

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

(* ---- the grid and its figures, shared by all four families ---- *)

type cell = {
  net : string * (Topology.Rng.t -> Sdn.Network.t);  (** an entry of [nets] *)
  srlg : bool;  (** SRLG group cuts, or matched singleton groups *)
  load : int;
  rate : float;
  stressed : bool;  (** restore's contended cell (see the header comment) *)
}

let models = [ false; true ]

(* nets × models × loads × rates, in this nesting order *)
let grid ~models requests =
  List.concat_map
    (fun net ->
      List.concat_map
        (fun srlg ->
          List.concat_map
            (fun load ->
              List.map
                (fun rate -> { net; srlg; load; rate; stressed = false })
                rates)
            (loads_of requests))
        models)
    nets

(* One figure per net and failure model of [grid], [prefix ^ tag]. Per
   treatment (sweep) in [infixes] it has one series
   [<metric>@<infix><load>] per load and metric, x the failure rate,
   then [<metric>@<infix>stressed] when the grid has stressed cells
   there. *)
let figures ~prefix ~title ~ylabel ~metrics ~infixes ~note grid =
  let distinct f cells = List.sort_uniq compare (List.map f cells) in
  let models = distinct (fun c -> c.srlg) grid in
  let loads =
    distinct (fun c -> c.load) (List.filter (fun c -> not c.stressed) grid)
  in
  List.concat
    (List.mapi
       (fun ni (name, _) ->
         List.mapi
           (fun mi srlg ->
             let tag = tag ((ni * List.length models) + mi) in
             let here c = fst c.net = name && c.srlg = srlg in
             let stressed = List.exists (fun c -> here c && c.stressed) grid in
             let series sweep infix =
               let by_rate at suffix =
                 List.map
                   (fun m ->
                     {
                       Spec.label = Printf.sprintf "%s@%s%s" m infix suffix;
                       cells =
                         Spec.cells ~sweep grid (fun c ->
                             if here c && at c then [ (c.rate, m) ] else []);
                     })
                   metrics
               in
               List.concat_map
                 (fun load ->
                   by_rate
                     (fun c -> c.load = load && not c.stressed)
                     (string_of_int load))
                 loads
               @
               if stressed then by_rate (fun c -> c.stressed) "stressed"
               else []
             in
             {
               Spec.fid = Printf.sprintf "%s%c" prefix tag;
               title = title ~srlg name;
               xlabel = "failure events per arrival";
               ylabel;
               series = List.concat (List.mapi series infixes);
               notes = [ note ~name ~srlg ~tag ~stressed ];
             })
           models)
       nets)

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

(* the cell's failure model is unused: churn draws link and server
   failures from Fault.random_timeline *)
let online_point ~rng c =
  let load = c.load in
  let net = snd c.net rng in
  let reqs = Workload.Gen.sequence rng net ~count:load in
  let timeline =
    arrival_indexed_timeline ~rng ~load
      ~events:(events_of ~rate:c.rate ~load)
      net
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
  let grid = grid ~models:[ false ] requests in
  {
    Spec.sweeps = [ Spec.grid ~key:"churn" grid online_point ];
    figures =
      figures ~prefix:"churn"
        ~title:(fun ~srlg:_ name ->
          "Failure churn: survival and repair tiers in " ^ name)
        ~ylabel:"survival rate / repairs / latency (ms)"
        ~metrics:(("survival" :: List.map fst tiers) @ [ "p50_ms"; "p99_ms" ])
        ~infixes:[ "" ]
        ~note:(fun ~name ~srlg:_ ~tag:_ ~stressed:_ ->
          Printf.sprintf
            "%s, Online_CP + Fault.random_timeline at arrival indices \
             (heal_after = load/4); tier columns are repair.* counter deltas, \
             latency columns are p50/p99 of the repair.attempt histogram"
            name)
        grid;
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

let baseline = { alpha = 0.0; restore = R.default }
let mean_holding = 25.0
let srlg_groups = 8

(* stressed-cell shape (see the header comment) *)
let stressed_heal_div = 8.0
let stressed_holding_frac = 0.5

let model_name srlg = if srlg then "SRLG" else "independent"

(* One matched point: network, trace, partition and timeline from [rng],
   then Dynamic.run under the treatment. The result carries every
   metric the three families tabulate; each figure picks by name. *)
let point t ~rng c =
  let holding, heal_div =
    if c.stressed then
      (stressed_holding_frac *. float_of_int c.load, stressed_heal_div)
    else (mean_holding, 4.0)
  in
  let attempted = Runner.counter_probe "restoration.attempted" in
  let failed = Runner.counter_probe "restoration.failed" in
  let pass = Runner.span_probe "restoration.pass" in
  let net = snd c.net rng in
  let trace =
    Dyn.poisson_trace rng net ~rate:1.0 ~mean_holding:holding ~count:c.load
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
    Fault.srlg_timeline ~heal_after:(horizon /. heal_div) ~rng ~horizon
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

(* one sweep per treatment, all under the matched-RNG key *)
let sweeps grid treatments =
  List.map (fun t -> Spec.grid ~key:"dynamic_churn" grid (point t)) treatments

let dynamic_churn_instance requests =
  let grid = grid ~models requests in
  {
    Spec.sweeps = sweeps grid [ baseline ];
    figures =
      figures ~prefix:"dynch"
        ~title:(fun ~srlg name ->
          Printf.sprintf
            "Dynamic churn (%s failures): survival, restoration and repair \
             tiers in %s"
            (model_name srlg) name)
        ~ylabel:"rate / repairs / latency (ms)"
        ~metrics:
          ([ "accept"; "survival" ]
          @ List.map fst tiers
          @ [ "restored"; "restored_frac"; "p50_ms"; "p99_ms" ])
        ~infixes:[ "" ]
        ~note:(fun ~name ~srlg ~tag:_ ~stressed:_ ->
          Printf.sprintf
            "%s, Online_CP, Poisson arrivals (rate 1, mean holding %g), %s \
             link cuts healing horizon/4 later; restoration order \
             smallest-first; tier columns are repair.* counter deltas, \
             latency columns p50/p99 of the repair.attempt histogram"
            name mean_holding
            (if srlg then
               Printf.sprintf "correlated (<= %d SRLG groups)" srlg_groups
             else "independent single-"))
        grid;
  }

let alphas = [ 0.0; 1.0; 4.0 ]

let avail_instance requests =
  let grid = grid ~models requests in
  {
    Spec.sweeps =
      sweeps grid (List.map (fun alpha -> { baseline with alpha }) alphas);
    figures =
      figures ~prefix:"avail"
        ~title:(fun ~srlg name ->
          Printf.sprintf
            "Availability-aware admission (%s failures): exposure surcharge \
             alpha on %s"
            (model_name srlg) name)
        ~ylabel:"rate / fraction / latency (ms)"
        ~metrics:[ "accept"; "survival"; "restored_frac"; "p50_ms"; "p99_ms" ]
        ~infixes:(List.map (Printf.sprintf "a%g@") alphas)
        ~note:(fun ~name ~srlg ~tag ~stressed:_ ->
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
        grid;
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

let restore_instance requests =
  (* GEANT only, both failure models, full offered load; the rates equal
     the canonical ones so every figure row is dense *)
  let load = List.fold_left max 1 (loads_of requests) in
  let stressed =
    List.concat_map
      (fun srlg ->
        List.map
          (fun rate ->
            { net = List.hd nets; srlg; load; rate; stressed = true })
          rates)
      models
  in
  let grid = grid ~models requests @ stressed in
  {
    Spec.sweeps =
      sweeps grid
        (List.map (fun restore -> { baseline with restore }) policies);
    figures =
      figures ~prefix:"restore"
        ~title:(fun ~srlg name ->
          Printf.sprintf
            "Restoration policy (%s failures): backlog selection at heal time \
             on %s"
            (model_name srlg) name)
        ~ylabel:"rate / count / latency (ms)"
        ~metrics:
          [
            "accept"; "restored"; "restored_frac"; "attempted"; "failed";
            "pass_p50_ms"; "pass_p99_ms";
          ]
        ~infixes:(List.map (fun p -> R.to_string p ^ "@") policies)
        ~note:(fun ~name ~srlg:_ ~tag ~stressed ->
          Printf.sprintf
            "%s, Online_CP, policies {%s}; matched RNG with dynamic_churn \
             (same sweep key), so the replay-smallest-first rows are \
             byte-identical to the dynch%c cells of the same metric; \
             attempted = restored + failed per policy, latency columns \
             p50/p99 of the restoration.pass histogram%s"
            name
            (String.concat ", " (List.map R.to_string policies))
            tag
            (if stressed then
               Printf.sprintf
                 "; @stressed series: full offered load with mean holding %g \
                  x horizon and outages healing after horizon/%g, so drops \
                  outlive their fault and the heal-time pass is contended \
                  (rates %s)"
                 stressed_holding_frac stressed_heal_div
                 (String.concat ", " (List.map string_of_float rates))
             else ""))
        grid;
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
