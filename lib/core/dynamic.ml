module Rng = Topology.Rng
module Pq = Mcgraph.Pqueue
module Obs = Nfv_obs.Obs

(* heal-triggered restoration telemetry: one attempted per re-admission
   try, exactly one of restored/failed per attempt *)
let c_restore_attempted = Obs.Counter.make "restoration.attempted"
let c_restore_restored = Obs.Counter.make "restoration.restored"
let c_restore_failed = Obs.Counter.make "restoration.failed"

type arrival = {
  at : float;
  holding : float;
  request : Sdn.Request.t;
}

type trace = arrival list

let exponential rng mean =
  let u = Float.max 1e-12 (Rng.float rng 1.0) in
  -.mean *. log u

let poisson_trace ?spec rng net ~rate ~mean_holding ~count =
  if rate <= 0.0 || mean_holding <= 0.0 then
    invalid_arg "Dynamic.poisson_trace: non-positive rate or holding";
  let now = ref 0.0 in
  List.init count (fun id ->
      now := !now +. exponential rng (1.0 /. rate);
      {
        at = !now;
        holding = exponential rng mean_holding;
        request = Workload.Gen.request ?spec rng net ~id;
      })

type stats = {
  arrivals : int;
  admitted : int;
  rejected : int;
  completed : int;
  acceptance_ratio : float;
  peak_concurrent : int;
  mean_concurrent : float;
  mean_utilization : float;
  horizon : float;
  evicted : int;
  repaired : int;
  dropped : int;
  restored : int;
}

type faults = {
  timeline : Sdn.Fault.timeline;
  controller : Sdn.Fault.t option;
  restore : Restore.t option;
}

let make_faults ?controller ?(restore = Some Restore.default) timeline =
  { timeline; controller; restore }

type happened =
  | Arrived of { id : int; tree : Pseudo_tree.t option }
  | Departed of { id : int; released : bool }
  | Fault_fired of { event : Sdn.Fault.event; victims : int list }
  | Repaired of { id : int; tier : Repair.tier; tree : Pseudo_tree.t }
  | Dropped of { id : int }
  | Restored of { id : int; tree : Pseudo_tree.t }

(* the ids of the live sessions using one link or server, in no order:
   an array with swap-remove, so keeping it current allocates nothing
   once it has grown *)
type holder_set = { mutable ids : int array; mutable len : int }

let hold h id =
  if h.len = Array.length h.ids then begin
    let ids = Array.make (max 4 (2 * h.len)) 0 in
    Array.blit h.ids 0 ids 0 h.len;
    h.ids <- ids
  end;
  h.ids.(h.len) <- id;
  h.len <- h.len + 1

let unhold h id =
  let i = ref 0 in
  while h.ids.(!i) <> id do
    incr i
  done;
  h.len <- h.len - 1;
  h.ids.(!i) <- h.ids.(h.len)

type event =
  | Arrive of arrival
  | Depart of int
  | Strike of Sdn.Fault.event

let run ?(reset = true) ?faults ?avail ?(observe = fun _ _ -> ()) net algo
    trace =
  (* one pricing context for arrivals, repair and restoration *)
  let pricing = Admission.pricing ?avail net algo in
  if reset then Sdn.Network.reset net;
  let fault =
    match faults with
    | None -> None
    | Some f ->
      Some (match f.controller with
           | Some c -> c
           | None -> Sdn.Fault.create net)
  in
  let q = ref (Pq.of_list (List.map (fun a -> (a.at, Arrive a)) trace)) in
  (match faults with
  | None -> ()
  | Some f ->
    List.iter
      (fun (s : Sdn.Fault.stamped) ->
        q := Pq.insert !q s.Sdn.Fault.at (Strike s.Sdn.Fault.event))
      f.timeline);
  let admitted = ref 0 and rejected = ref 0 and completed = ref 0 in
  let evicted = ref 0 and repaired = ref 0 in
  let dropped = ref 0 and restored = ref 0 in
  let concurrent = ref 0 and peak = ref 0 in
  (* sessions currently holding resources, and evicted-but-droppped
     sessions whose natural lifetime has not ended yet (the restoration
     backlog); both keyed by request id, which must be distinct *)
  let live : (int, Pseudo_tree.t) Hashtbl.t = Hashtbl.create 64 in
  let backlog : (int, Sdn.Request.t) Hashtbl.t = Hashtbl.create 16 in
  (* scheduled natural departure time per admitted session; kept while
     the session sits in the restoration backlog so deadline-aware
     policies can read remaining lifetimes, retired at departure *)
  let depart_of : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let last_time = ref 0.0 in
  let conc_integral = ref 0.0 and util_integral = ref 0.0 in
  (* residuals change only through allocate, release and reset, and each
     bumps the weight epoch, so the O(|E|) mean is recomputed once per
     epoch and is the same float a fresh sum would give *)
  let util_epoch = ref min_int and util = ref 0.0 in
  let step now =
    let dt = now -. !last_time in
    conc_integral := !conc_integral +. (dt *. float_of_int !concurrent);
    let epoch = Sdn.Network.weight_epoch net in
    if epoch <> !util_epoch then begin
      util := Sdn.Network.mean_link_utilization net;
      util_epoch := epoch
    end;
    util_integral := !util_integral +. (dt *. !util);
    last_time := now
  in
  (* the live sessions whose trees use each link and each server node,
     so a strike reads only the struck resource's holders
     ([Fault.inject] skips any session holding no positive amount
     there); kept only when faults can strike *)
  let holders =
    let empty _ = { ids = [||]; len = 0 } in
    Option.map
      (fun _ ->
        ( Array.init (Sdn.Network.m net) empty,
          Array.init (Sdn.Network.n net) empty ))
      faults
  in
  let index f id (tree : Pseudo_tree.t) =
    match holders with
    | None -> ()
    | Some (links, nodes) ->
      List.iter (fun (e, _) -> f links.(e) id) tree.Pseudo_tree.edge_uses;
      List.iter (fun v -> f nodes.(v) id) tree.Pseudo_tree.servers
  in
  let add_live id tree =
    Hashtbl.replace live id tree;
    index hold id tree
  in
  let remove_live id tree =
    Hashtbl.remove live id;
    index unhold id tree
  in
  let enter id tree =
    add_live id tree;
    incr concurrent;
    if !concurrent > !peak then peak := !concurrent
  in
  (* the live sessions holding a resource, ascending by id, with their
     allocations; an id outside the index holds nothing, so it reaches
     [Fault.inject]'s own validation *)
  let holding held i =
    if i < 0 || i >= Array.length held then []
    else
      let h = held.(i) in
      List.init h.len (Array.get h.ids)
      |> List.sort_uniq Int.compare
      |> List.map (fun id -> (id, Pseudo_tree.allocation (Hashtbl.find live id)))
  in
  (* one proactive re-admission pass over the dropped backlog, in the
     policy's order. [returned] is the trigger's estimate of the
     bandwidth it just gave back (only knapsack policies read it). The
     span only opens on a nonempty backlog, exactly like the historical
     hard-coded pass. *)
  let restore_pass now (rcfg : Restore.t) ~returned =
    if Hashtbl.length backlog > 0 then
      Obs.Span.run "restoration.pass" @@ fun () ->
      let entries =
        Hashtbl.fold
          (fun id r acc ->
            {
              Restore.request = r;
              depart_at =
                Option.value ~default:infinity (Hashtbl.find_opt depart_of id);
            }
            :: acc)
          backlog []
      in
      List.iter
        (fun (r : Sdn.Request.t) ->
          Obs.Counter.incr c_restore_attempted;
          match Admission.admit pricing r with
          | Ok tree ->
            Obs.Counter.incr c_restore_restored;
            Hashtbl.remove backlog r.Sdn.Request.id;
            incr restored;
            enter r.Sdn.Request.id tree;
            observe now (Restored { id = r.Sdn.Request.id; tree })
          | Error _ -> Obs.Counter.incr c_restore_failed)
        (Restore.select ~window:pricing.Admission.cp.Online_cp.window ~returned
           net rcfg
           entries)
  in
  let strike now ev =
    let fault = Option.get fault and cfg = Option.get faults in
    (* the heal's returned-bandwidth estimate must be read before
       [inject] clears the confiscation ledger *)
    let returned =
      match ev with
      | Sdn.Fault.Link_up e -> Sdn.Fault.confiscated_link fault e
      | _ -> 0.0
    in
    (* a failure can only evict the struck resource's holders; a heal
       evicts nobody and never reads the live sessions *)
    let links, nodes = Option.get holders in
    let allocations =
      match ev with
      | Sdn.Fault.Link_up _ | Sdn.Fault.Server_up _ -> []
      | Sdn.Fault.Link_down e | Sdn.Fault.Degrade_link (e, _) -> holding links e
      | Sdn.Fault.Server_down v | Sdn.Fault.Degrade_server (v, _) ->
        holding nodes v
    in
    let victims = Sdn.Fault.inject fault ~live:allocations ev in
    evicted := !evicted + List.length victims;
    observe now (Fault_fired { event = ev; victims });
    List.iter
      (fun vid ->
        let vtree = Hashtbl.find live vid in
        remove_live vid vtree;
        match
          Repair.repair pricing
            ~link_down:(Sdn.Fault.link_is_down fault)
            ~server_down:(Sdn.Fault.server_is_down fault)
            vtree
        with
        | Repair.Repaired { tree; tier } ->
          incr repaired;
          add_live vid tree;
          observe now (Repaired { id = vid; tier; tree })
        | Repair.Dropped _ ->
          incr dropped;
          decr concurrent;
          Hashtbl.replace backlog vid vtree.Pseudo_tree.request;
          observe now (Dropped { id = vid }))
      victims;
    (* a heal returns capacity: proactively re-admit the dropped backlog
       under the run's restoration policy (each survivor keeps its
       original departure time, still scheduled in the queue) *)
    match (ev, cfg.restore) with
    | (Sdn.Fault.Link_up _ | Sdn.Fault.Server_up _), Some rcfg ->
      restore_pass now rcfg ~returned
    | _ -> ()
  in
  let rec drain () =
    match Pq.pop !q with
    | None -> ()
    | Some (now, ev, rest) ->
      q := rest;
      step now;
      (match ev with
      | Arrive a -> (
        let id = a.request.Sdn.Request.id in
        match Admission.admit pricing a.request with
        | Ok tree ->
          incr admitted;
          enter id tree;
          Hashtbl.replace depart_of id (now +. a.holding);
          (* an unbounded holding time is the paper's online model: the
             session keeps its resources for the rest of the run *)
          if Float.is_finite a.holding then
            q := Pq.insert !q (now +. a.holding) (Depart id);
          observe now (Arrived { id; tree = Some tree })
        | Error _ ->
          incr rejected;
          observe now (Arrived { id; tree = None }))
      | Depart id -> (
        match Hashtbl.find_opt live id with
        | Some tree ->
          (* release reprices every load-dependent weight; it bumps the
             network's weight epoch, so the next arrival's shortest-path
             engine cannot serve trees computed under the old prices *)
          let alloc = Pseudo_tree.allocation tree in
          Sdn.Network.release net alloc;
          remove_live id tree;
          Hashtbl.remove depart_of id;
          decr concurrent;
          incr completed;
          observe now (Departed { id; released = true });
          (* a departure returns capacity too: under [Heal_or_depart]
             it triggers the same restoration pass a heal would, with
             the departed session's link bandwidth as the returned
             estimate *)
          (match faults with
          | Some { restore = Some rcfg; _ } when Restore.on_depart rcfg ->
            let returned =
              List.fold_left
                (fun acc (_, amt) -> acc +. amt)
                0.0 alloc.Sdn.Network.links
            in
            restore_pass now rcfg ~returned
          | _ -> ())
        | None ->
          (* evicted by a fault and never restored: its allocation was
             already released at eviction, so there is nothing to give
             back (releasing again would double-free); its lifetime is
             over, so it also leaves the restoration backlog *)
          Hashtbl.remove backlog id;
          Hashtbl.remove depart_of id;
          observe now (Departed { id; released = false }))
      | Strike ev -> strike now ev);
      drain ()
  in
  drain ();
  let arrivals = List.length trace in
  let horizon = !last_time in
  {
    arrivals;
    admitted = !admitted;
    rejected = !rejected;
    completed = !completed;
    acceptance_ratio =
      (if arrivals = 0 then 1.0 else float_of_int !admitted /. float_of_int arrivals);
    peak_concurrent = !peak;
    mean_concurrent = (if horizon > 0.0 then !conc_integral /. horizon else 0.0);
    mean_utilization = (if horizon > 0.0 then !util_integral /. horizon else 0.0);
    horizon;
    evicted = !evicted;
    repaired = !repaired;
    dropped = !dropped;
    restored = !restored;
  }
