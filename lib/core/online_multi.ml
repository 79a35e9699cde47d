type admitted = {
  tree : Pseudo_tree.t;
  servers : int list;
  score : float;
}

type outcome = Admitted of admitted | Rejected of string

let admit ?(k = 2) window request =
  let net = Sp_window.net window in
  let p =
    Online_cp.pricing ~mode:`Exponential
      ~params:(Online_cp.default_params net) window
  in
  let demand = Sdn.Request.demand_mhz request in
  (* server weight scaled by its utilisation increment so it is
     commensurable with the edge weights (both are load-sensitive,
     dimensionless prices) *)
  let placement_cost v =
    Online_cp.server_weight p ~demand v
    +. (demand /. Sdn.Network.server_capacity net v)
  in
  let usable =
    List.filter
      (fun v -> Sdn.Network.server_admits net v demand)
      (Sdn.Network.servers net)
  in
  if usable = [] then Rejected "no server with enough computing residual"
  else begin
    (* Online_CP's link prices, read through its window engine inside
       Aux_graph. Trying candidates in order below stays consistent with
       the prices they were scored at: a failed allocate changes nothing
       (atomic) and does not bump the weight epoch. *)
    let engine = Online_cp.engine p ~bandwidth:request.Sdn.Request.bandwidth in
    let cands =
      Appro_multi.candidates ~k ~placement_cost ~engine ~usable_servers:usable
        net request
    in
    let rec try_cands = function
      | [] -> Rejected "no allocatable combination"
      | (score, _, aux, edges) :: rest -> (
        let tree = Aux_graph.to_pseudo_tree aux edges in
        match Sdn.Network.allocate net (Pseudo_tree.allocation tree) with
        | Ok () ->
          Admitted { tree; servers = tree.Pseudo_tree.servers; score }
        | Error _ -> try_cands rest)
    in
    match cands with
    | [] -> Rejected "destinations unreachable under bandwidth residuals"
    | _ -> try_cands cands
  end

let run ?k net requests =
  Sdn.Network.reset net;
  let window = Sp_window.create net in
  List.fold_left
    (fun acc r ->
      match admit ?k window r with Admitted _ -> acc + 1 | Rejected _ -> acc)
    0 requests
