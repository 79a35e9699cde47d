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

let reorder ?k ~window net requests = function
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
            match Appro_multi.solve ?k ~window net r with
            | Ok res -> res.Appro_multi.cost
            | Error _ -> infinity
          in
          (price, r))
        requests
    in
    List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) priced)

let plan ?k net requests order =
  (* Reset strictly before pricing: Cheapest_first's solves must see the
     idle network, not whatever residuals the previous run left behind. *)
  Sdn.Network.reset net;
  (* one engine window across pricing and admission: every Cheapest_first
     solve runs before the first allocation, so same-bandwidth requests
     share cached Dijkstra trees for the whole pricing pass *)
  let window = Sp_window.create net in
  let ordered = reorder ?k ~window net requests order in
  let admitted = ref 0 and rejected = ref 0 and total = ref 0.0 in
  let trees = ref [] in
  List.iter
    (fun r ->
      match Appro_multi.admit ?k ~window net r with
      | Ok res ->
        incr admitted;
        total := !total +. res.Appro_multi.cost;
        trees := (r.Sdn.Request.id, res.Appro_multi.tree) :: !trees
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
