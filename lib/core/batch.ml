module Obs = Nfv_obs.Obs

(* same instrument Online_cp's floor counts under (Counter.make is
   idempotent per name) *)
let c_avail_blocked = Obs.Counter.make "avail.reserve_blocked"

type order =
  | Arrival
  | Smallest_first
  | Largest_first
  | Cheapest_first

let order_to_string = function
  | Arrival -> "arrival"
  | Smallest_first -> "smallest-first"
  | Largest_first -> "largest-first"
  | Cheapest_first -> "cheapest-first"

type result = {
  order : order;
  admitted : int;
  rejected : int;
  total_cost : float;
  mean_link_utilization : float;
  trees : (int * Pseudo_tree.t) list;
}

let footprint r =
  r.Sdn.Request.bandwidth *. float_of_int (Sdn.Request.terminal_count r)

let reorder ?k ?window net requests = function
  | Arrival -> requests
  | Smallest_first ->
    List.stable_sort (fun a b -> compare (footprint a) (footprint b)) requests
  | Largest_first ->
    List.stable_sort (fun a b -> compare (footprint b) (footprint a)) requests
  | Cheapest_first ->
    let priced =
      List.map
        (fun r ->
          let price =
            match Appro_multi.solve ?k ?window net r with
            | Ok res -> res.Appro_multi.cost
            | Error _ -> infinity
          in
          (price, r))
        requests
    in
    List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) priced)

let plan ?k ?(reset = true) ?avail net requests order =
  (* Reset strictly before pricing: Cheapest_first's solves must see the
     idle network, not whatever residuals the previous run left behind
     (they used to run first, making the promised idle-network pricing a
     lie whenever [plan] followed another run on the same network). With
     [~reset:false] the caller deliberately keeps the current residuals,
     and pricing sees exactly those. *)
  if reset then Sdn.Network.reset net;
  (* one engine window across pricing and admission: every Cheapest_first
     solve runs before the first allocation, so same-bandwidth requests
     share cached Dijkstra trees for the whole pricing pass *)
  let window = Sp_window.create net in
  let ordered = reorder ?k ~window net requests order in
  let admitted = ref 0 and rejected = ref 0 and total = ref 0.0 in
  let trees = ref [] in
  (* the offline planner prices with Appro_Multi's linear costs, so the
     exposure surcharge does not apply here; [avail]'s spare-capacity
     floor does. [Appro_multi.admit] has already committed the
     allocation when it returns [Ok], so the floor is asked on the
     committed residuals ({!Online_cp.reserve_admits_after}) and the
     allocation only released on an actual block — a passing floor
     touches nothing, so it cannot bump the weight epoch or flush the
     plan's Sp_window engines (the old release / check / re-commit
     dance churned the epoch twice per admitted request). *)
  let floor_blocks alloc =
    match avail with
    | Some av when Online_cp.avail_reserve av > 0.0 ->
      if Online_cp.reserve_admits_after av net alloc then false
      else begin
        Sdn.Network.release net alloc;
        Obs.Counter.incr c_avail_blocked;
        true
      end
    | _ -> false
  in
  List.iter
    (fun r ->
      match Appro_multi.admit ?k ~window net r with
      | Ok res ->
        if floor_blocks (Pseudo_tree.allocation res.Appro_multi.tree) then
          incr rejected
        else begin
          incr admitted;
          total := !total +. res.Appro_multi.cost;
          trees := (r.Sdn.Request.id, res.Appro_multi.tree) :: !trees
        end
      | Error _ -> incr rejected)
    ordered;
  {
    order;
    admitted = !admitted;
    rejected = !rejected;
    total_cost = !total;
    mean_link_utilization = Sdn.Network.mean_link_utilization net;
    trees = List.rev !trees;
  }

let compare_orders ?k ?(reset = true) ?avail net requests =
  (* [?avail]/[?reset] used to be dropped on the floor here, so the
     comparison could not express the availability floor [plan]
     supports. With [reset:false] every order must still start from the
     caller's residuals, so each plan's admitted trees are released
     again before the next order runs (exact up to float round-off —
     release returns precisely the amounts allocate subtracted, in the
     same per-link aggregation). *)
  List.map
    (fun o ->
      let r = plan ?k ~reset ?avail net requests o in
      if not reset then
        List.iter
          (fun (_, t) -> Sdn.Network.release net (Pseudo_tree.allocation t))
          r.trees;
      (o, r))
    [ Arrival; Smallest_first; Largest_first; Cheapest_first ]
