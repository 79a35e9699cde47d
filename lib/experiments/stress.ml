module Adm = Nfv_multicast.Admission

(* Load-sweep stress telemetry on the Rocketfuel-scale topologies.

   One pool point = one (topology, load level): a fresh network admits
   [load] online requests with Online_CP and the point reports where the
   rejections went, read as deltas of the algorithm's own
   ["online_cp.rejected.*"] reason counters (plus ["online_cp.admitted"])
   rather than by re-deriving outcomes — the tables are exactly the
   telemetry an operator would scrape. *)

let nets =
  [
    ("AS1755", 'A', fun rng -> Exp_common.as1755_network rng);
    ("AS4755", 'B', fun rng -> Exp_common.as4755_network rng);
  ]

let reasons =
  [
    ("admitted", "online_cp.admitted");
    ("no_feasible_server", "online_cp.rejected.no_feasible_server");
    ("unreachable", "online_cp.rejected.unreachable");
    ("server_unreachable", "online_cp.rejected.server_unreachable");
    ("over_threshold", "online_cp.rejected.over_threshold");
    ("unallocatable", "online_cp.rejected.unallocatable");
  ]

let default_requests = 4000

(* the load levels are the horizon and its halvings, so --requests
   scales the whole sweep down for smoke runs; a small horizon repeats a
   level, which is kept once *)
let loads_of requests =
  List.sort_uniq compare
    (List.map (fun d -> max 1 (requests / d)) [ 8; 4; 2; 1 ])

let metric name load = Printf.sprintf "%s@%d" name load

let instance ?(requests = default_requests) () =
  let loads = loads_of requests in
  let params =
    List.concat_map
      (fun (name, _, make_net) -> List.map (fun l -> (name, make_net, l)) loads)
      nets
  in
  let sweep =
    Spec.grid ~key:"stress" params (fun ~rng (_, make_net, load) ->
        let net = make_net rng in
        let reqs = Workload.Gen.sequence rng net ~count:load in
        let probes =
          List.map
            (fun (name, counter) -> (name, Runner.counter_probe counter))
            reasons
        in
        ignore (Adm.run net Adm.Online_cp reqs);
        List.map
          (fun (name, p) ->
            (metric name load, float_of_int (Runner.counter_delta p)))
          probes)
  in
  let figures =
    List.map
      (fun (name, tag, _) ->
        {
          Spec.fid = Printf.sprintf "stress%c" tag;
          title = "Online_CP outcome breakdown under load in " ^ name;
          xlabel = "offered requests";
          ylabel = "requests";
          series =
            List.map
              (fun (rname, _) ->
                {
                  Spec.label = rname;
                  cells =
                    Spec.cells ~sweep:0 params (fun (net, _, load) ->
                        if net = name then
                          [ (float_of_int load, metric rname load) ]
                        else []);
                })
              reasons;
          notes =
            [
              Printf.sprintf
                "%s, K = 1; columns are deltas of the online_cp.admitted / \
                 online_cp.rejected.* counters over one admission run"
                name;
            ];
        })
      nets
  in
  { Spec.sweeps = [ sweep ]; figures }

let spec =
  Spec.make ~id:"stress"
    ~doc:"Stress: Online_CP rejection-reason telemetry vs load on Rocketfuel topologies"
    ~smoke:(fun ~seed:_ -> instance ~requests:32 ())
    (fun ~seed:_ ~requests -> instance ?requests ())
