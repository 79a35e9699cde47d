module Paths = Mcgraph.Paths
module Sp = Mcgraph.Sp_engine
module Obs = Nfv_obs.Obs

let c_dijkstras = Obs.Counter.make "online_sp.dijkstras"
let c_relaxations = Obs.Counter.make "online_sp.relaxations"
let c_admitted = Obs.Counter.make "online_sp.admitted"
let c_rejected = Obs.Counter.make "online_sp.rejected"

type admitted = {
  tree : Pseudo_tree.t;
  server : int;
  hops : int;
}

type outcome = Admitted of admitted | Rejected of string

type candidate = {
  cand_server : int;
  cand_path : int list;       (* s_k → v *)
  cand_tree : int list;       (* union of v → d paths *)
  cand_spt : Paths.spt;
  cand_hops : int;
}

let admit_impl window request =
  let net = Sp_window.net window in
  let g = Sdn.Network.graph net in
  let b = request.Sdn.Request.bandwidth in
  let s = request.Sdn.Request.source in
  let demand = Sdn.Request.demand_mhz request in
  let weight e = if Sdn.Network.link_admits net e b then 1.0 else infinity in
  let usable =
    List.filter (fun v -> Sdn.Network.server_admits net v demand) (Sdn.Network.servers net)
  in
  if usable = [] then Rejected "no server with enough computing residual"
  else begin
    (* unit weights are fully determined by the feasibility pruning, so
       the bandwidth bucket alone keys the engine within a window *)
    let eng =
      Sp_window.engine window ~family:"online_sp"
        ~bucket:(Sp_window.bucket window ~bandwidth:b)
        ~weight
    in
    let consider acc v =
      let spt = Sp.spt eng v in
      if spt.Paths.dist.(s) = infinity then acc
      else if
        List.exists
          (fun d -> spt.Paths.dist.(d) = infinity)
          request.Sdn.Request.destinations
      then acc
      else begin
        let to_v =
          List.rev (Option.get (Paths.path_edges g spt s))  (* s → v *)
        in
        let union = Hashtbl.create 32 in
        List.iter
          (fun d ->
            List.iter
              (fun e -> Hashtbl.replace union e ())
              (Option.get (Paths.path_edges g spt d)))
          request.Sdn.Request.destinations;
        let tree_edges = Hashtbl.fold (fun e () acc -> e :: acc) union [] in
        let hops = List.length to_v + List.length tree_edges in
        {
          cand_server = v;
          cand_path = to_v;
          cand_tree = tree_edges;
          cand_spt = spt;
          cand_hops = hops;
        }
        :: acc
      end
    in
    let cands = List.fold_left consider [] usable in
    match cands with
    | [] -> Rejected "destinations unreachable under residual resources"
    | _ ->
      let sorted = List.sort (fun a b -> compare a.cand_hops b.cand_hops) cands in
      let rec try_cands = function
        | [] -> Rejected "no candidate could reserve its resources"
        | c :: rest -> (
          let v = c.cand_server in
          let route_of d =
            let onward = Option.get (Paths.path_edges g c.cand_spt d) in
            (d, { Pseudo_tree.to_server = c.cand_path; server = v; onward })
          in
          let routes = List.map route_of request.Sdn.Request.destinations in
          let tree =
            Pseudo_tree.make ~request ~servers:[ v ]
              ~edge_uses:
                (Pseudo_tree.edge_uses_of_list (c.cand_path @ c.cand_tree))
              ~routes
          in
          match Sdn.Network.allocate net (Pseudo_tree.allocation tree) with
          | Ok () -> Admitted { tree; server = v; hops = c.cand_hops }
          | Error _ -> try_cands rest)
      in
      try_cands sorted
  end

let admit window request =
  let outcome =
    Paths.attributed "online_sp.admit" ~dijkstras:c_dijkstras
      ~relaxations:c_relaxations (fun () -> admit_impl window request)
  in
  (match outcome with
  | Admitted _ -> Obs.Counter.incr c_admitted
  | Rejected _ -> Obs.Counter.incr c_rejected);
  outcome
