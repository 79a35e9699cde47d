module Obs = Nfv_obs.Obs

let c_sp_hits = Obs.Counter.make "sp_engine.cache_hits"
let c_sp_misses = Obs.Counter.make "sp_engine.cache_misses"
let c_dijkstra_runs = Obs.Counter.make "dijkstra.runs"

type algorithm =
  | Online_cp
  | Online_cp_no_threshold
  | Online_linear
  | Sp

let algorithm_to_string = function
  | Online_cp -> "Online_CP"
  | Online_cp_no_threshold -> "Online_CP_noSigma"
  | Online_linear -> "Online_Linear"
  | Sp -> "SP"

type record = {
  request_id : int;
  admitted : bool;
  server : int option;
  cost : float option;
  detail : string;
}

type stats = {
  algorithm : algorithm;
  total : int;
  admitted : int;
  rejected : int;
  acceptance_ratio : float;
  mean_link_utilization : float;
  max_link_utilization : float;
  jain_fairness : float;
  total_cost : float;
  runtime_s : float;
  records : record list;
}

type pricing = { algo : algorithm; cp : Online_cp.pricing }

(* the one algorithm -> (mode, params) map. Sp admits with its own
   load-oblivious unit weights; its [`Linear] entry is what Repair's
   tiers 1-2 search under. *)
let pricing ?window ?avail net algo =
  let window =
    match window with
    | Some w when Sp_window.net w != net ->
      invalid_arg "Admission.pricing: window over a different network"
    | Some w -> w
    | None -> Sp_window.create net
  in
  let params = Online_cp.default_params net in
  let mode, params =
    match algo with
    | Online_cp -> (`Exponential, params)
    | Online_cp_no_threshold ->
      (`Exponential, { params with sigma_v = infinity; sigma_e = infinity })
    | Online_linear | Sp -> (`Linear, params)
  in
  { algo; cp = Online_cp.pricing ?avail ~mode ~params window }

(* Each admit prices the request against the network's current
   residuals; a successful allocate bumps [Sdn.Network.weight_epoch], so
   shortest-path engines never serve stale distances — the pricing's
   [Sp_window] only lets cached trees survive while the epoch stands
   still (request bursts that end in rejection). The SP baseline keeps
   its own load-oblivious weights (it exists to show what ignoring load
   costs — ignoring the failure model is the same ablation), so [avail]
   does not apply to it. *)
let admit p request =
  match p.algo with
  | Online_cp | Online_cp_no_threshold | Online_linear -> (
    match Online_cp.admit p.cp request with
    | Online_cp.Admitted a -> Ok a.Online_cp.tree
    | Online_cp.Rejected r -> Error (Online_cp.rejection_to_string r))
  | Sp -> (
    match Online_sp.admit p.cp.Online_cp.window request with
    | Online_sp.Admitted a -> Ok a.Online_sp.tree
    | Online_sp.Rejected msg -> Error msg)

let admit_tree ?window net algo request = admit (pricing ?window net algo) request

(* Per-variant telemetry: the algorithm modules count under their own
   names ("online_cp.…"), but one Online_cp module serves three
   admission variants; diffing the process-wide counters around the
   whole run separates them ("admission.Online_CP_noSigma.…"). *)
let publish_run_counters algo ~dijkstras ~sp_hits ~sp_misses ~admitted =
  let prefix = "admission." ^ algorithm_to_string algo in
  Obs.Counter.add (Obs.Counter.make (prefix ^ ".dijkstras")) dijkstras;
  Obs.Counter.add (Obs.Counter.make (prefix ^ ".sp_hits")) sp_hits;
  Obs.Counter.add (Obs.Counter.make (prefix ^ ".sp_misses")) sp_misses;
  Obs.Counter.add (Obs.Counter.make (prefix ^ ".admitted")) admitted

let run net algo requests =
  (* one pricing, hence one engine window, for the whole run: requests
     between two epoch bumps (i.e. after a rejection) reuse each other's
     Dijkstra trees instead of starting from a cold per-request engine *)
  let p = pricing net algo in
  Sdn.Network.reset net;
  let dij0 = Obs.Counter.value c_dijkstra_runs in
  let hits0 = Obs.Counter.value c_sp_hits in
  let misses0 = Obs.Counter.value c_sp_misses in
  (* [Obs.clock] rather than [Sys.time] directly: the process clock the
     front end installed (wall clock in nfvm), or the determinism tests'
     per-domain fake clock *)
  let started = !Obs.clock () in
  let records =
    List.map
      (fun request ->
        let request_id = request.Sdn.Request.id in
        match admit p request with
        | Ok (tree : Pseudo_tree.t) ->
          {
            request_id;
            admitted = true;
            server = Some (List.hd tree.Pseudo_tree.servers);
            cost = Some (Pseudo_tree.cost net tree);
            detail = "";
          }
        | Error detail ->
          { request_id; admitted = false; server = None; cost = None; detail })
      requests
  in
  let runtime_s = !Obs.clock () -. started in
  let admitted =
    List.length (List.filter (fun (r : record) -> r.admitted) records)
  in
  if !Obs.enabled then
    publish_run_counters algo
      ~dijkstras:(Obs.Counter.value c_dijkstra_runs - dij0)
      ~sp_hits:(Obs.Counter.value c_sp_hits - hits0)
      ~sp_misses:(Obs.Counter.value c_sp_misses - misses0)
      ~admitted;
  let total = List.length records in
  let total_cost =
    List.fold_left
      (fun acc r -> acc +. Option.value r.cost ~default:0.0)
      0.0 records
  in
  {
    algorithm = algo;
    total;
    admitted;
    rejected = total - admitted;
    acceptance_ratio =
      (if total = 0 then 1.0 else float_of_int admitted /. float_of_int total);
    mean_link_utilization = Sdn.Network.mean_link_utilization net;
    max_link_utilization = Sdn.Network.max_link_utilization net;
    jain_fairness = Sdn.Network.jain_fairness net;
    total_cost;
    runtime_s;
    records;
  }

let admitted_after stats n =
  let rec go count i = function
    | [] -> count
    | (r : record) :: rest ->
      if i >= n then count
      else go (if r.admitted then count + 1 else count) (i + 1) rest
  in
  go 0 0 stats.records
