module Sp = Mcgraph.Sp_engine
module Obs = Nfv_obs.Obs

let c_dijkstras = Obs.Counter.make "one_server.dijkstras"
let c_relaxations = Obs.Counter.make "one_server.relaxations"
let c_solved = Obs.Counter.make "one_server.solved"
let c_infeasible = Obs.Counter.make "one_server.infeasible"

type result = {
  tree : Pseudo_tree.t;
  server : int;
  cost : float;
}

(* As described in §VI-A: find an MST of the metric closure over the
   destinations alone and expand each closure edge into its shortest
   path ("expands the MST into its corresponding subgraph") — without
   Appro_Multi's second MST/pruning refinement, so overlapping
   expansions are paid for. For each candidate server, add the shortest
   path source → server and the server's cheapest attachment to the
   subgraph; keep the cheapest combination. The structure is
   server-oblivious — the weakness Appro_Multi's joint optimisation
   exploits. *)
let solve_impl net request =
  let g = Sdn.Network.graph net in
  let b = request.Sdn.Request.bandwidth in
  let s = request.Sdn.Request.source in
  let weight e = b *. Sdn.Network.link_unit_cost net e in
  (* lazy engine: trees only for the sources actually queried — the
     destinations (metric closure), the request source and the candidate
     servers — instead of |V| eager Dijkstras *)
  let eng =
    Sp.create g ~weight ~epoch:(fun () -> Sdn.Network.weight_epoch net)
  in
  let dist u v = Sp.dist eng u v in
  let path u v = Sp.path eng u v in
  let destinations = List.sort_uniq compare request.Sdn.Request.destinations in
  let points = Array.of_list destinations in
  match Mcgraph.Mst.prim_metric ~points ~dist with
  | None -> Error "destinations not mutually reachable"
  | Some closure_mst ->
    let subgraph =
      let seen = Hashtbl.create 32 in
      List.iter
        (fun (a, c) ->
          List.iter (fun e -> Hashtbl.replace seen e ()) (Option.get (path a c)))
        closure_mst;
      Hashtbl.fold (fun e () acc -> e :: acc) seen []
    in
    let tree_nodes = Hashtbl.create 16 in
    List.iter (fun d -> Hashtbl.replace tree_nodes d ()) destinations;
    List.iter
      (fun e ->
        let u, v = Mcgraph.Graph.endpoints g e in
        Hashtbl.replace tree_nodes u ();
        Hashtbl.replace tree_nodes v ())
      subgraph;
    let subgraph_cost = Mcgraph.Steiner.tree_cost ~weight subgraph in
    let consider best v =
      if dist s v = infinity then best
      else begin
        let attach =
          Hashtbl.fold
            (fun x () best ->
              match best with
              | Some (dx, _) when dx <= dist v x -> best
              | _ when dist v x = infinity -> best
              | _ -> Some (dist v x, x))
            tree_nodes None
        in
        match attach with
        | None -> best
        | Some (d_attach, x) ->
          let c =
            dist s v
            +. Sdn.Network.chain_cost net v request.Sdn.Request.chain
            +. d_attach +. subgraph_cost
          in
          (match best with
          | Some (c', _, _) when c' <= c -> best
          | _ -> Some (c, v, x))
      end
    in
    (match List.fold_left consider None (Sdn.Network.servers net) with
    | None -> Error "no reachable server"
    | Some (_, v, x) ->
      let to_server = Option.get (path s v) in
      let v_to_x = Option.get (path v x) in
      (* route witnesses over a spanning tree of the (possibly redundant)
         subgraph; the full subgraph is charged, as the baseline floods it *)
      let spanning = Mcgraph.Mst.kruskal_subset g ~weight ~edges:subgraph in
      Mcgraph.Tree.root g ~root:x spanning;
      let routes =
        List.map
          (fun d ->
            let onward =
              v_to_x @ List.rev (Mcgraph.Tree.path_up d ~ancestor:x)
            in
            (d, { Pseudo_tree.to_server; server = v; onward }))
          request.Sdn.Request.destinations
      in
      let tree =
        Pseudo_tree.make ~request ~servers:[ v ]
          ~edge_uses:
            (Pseudo_tree.edge_uses_of_list (to_server @ v_to_x @ subgraph))
          ~routes
      in
      Ok { tree; server = v; cost = Pseudo_tree.cost net tree })

let solve net request =
  let result =
    Mcgraph.Paths.attributed "one_server.solve" ~dijkstras:c_dijkstras
      ~relaxations:c_relaxations (fun () -> solve_impl net request)
  in
  (match result with
  | Ok _ -> Obs.Counter.incr c_solved
  | Error _ -> Obs.Counter.incr c_infeasible);
  result
