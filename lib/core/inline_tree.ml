module G = Mcgraph.Graph
module Tree = Mcgraph.Tree
module Sp = Mcgraph.Sp_engine

let derive net request ~tree ~servers =
  let g = Sdn.Network.graph net in
  let b = request.Sdn.Request.bandwidth in
  let weight e = b *. Sdn.Network.link_unit_cost net e in
  let s = request.Sdn.Request.source in
  match Tree.root g ~root:s tree with
  | exception Invalid_argument m -> Error ("not a tree rooted at the source: " ^ m)
  | () ->
    if servers = [] then Error "no servers supplied"
    else if not (List.for_all (Sdn.Network.is_server net) servers) then
      Error "a supplied node is not a server"
    else if not (List.for_all Tree.mem servers) then
      Error "a supplied server is off the tree"
    else if
      not (List.for_all Tree.mem request.Sdn.Request.destinations)
    then Error "a destination is off the tree"
    else begin
      (* each destination goes to its tree-nearest server *)
      let assign d =
        let best =
          List.fold_left
            (fun best v ->
              let p = Tree.path_between v d in
              let c = Mcgraph.Steiner.tree_cost ~weight p in
              match best with
              | Some (c', _, _) when c' <= c -> best
              | _ -> Some (c, v, p))
            None servers
        in
        match best with
        | Some (_, v, p) -> (d, v, p)
        | None -> assert false
      in
      let assignments = List.map assign request.Sdn.Request.destinations in
      let used =
        List.sort_uniq compare (List.map (fun (_, v, _) -> v) assignments)
      in
      (* unprocessed flow: the union of tree paths source → used server *)
      let t0 = Hashtbl.create 16 in
      List.iter
        (fun v ->
          List.iter
            (fun e -> Hashtbl.replace t0 e ())
            (Tree.path_up v ~ancestor:s))
        used;
      (* processed flows: per server, the union of its fan-out paths *)
      let floods = Hashtbl.create 4 in
      List.iter (fun v -> Hashtbl.replace floods v (Hashtbl.create 16)) used;
      List.iter
        (fun (_, v, p) ->
          let fl = Hashtbl.find floods v in
          List.iter (fun e -> Hashtbl.replace fl e ()) p)
        assignments;
      let uses =
        Hashtbl.fold (fun e () acc -> e :: acc) t0 []
        @ List.concat_map
            (fun v -> Hashtbl.fold (fun e () acc -> e :: acc) (Hashtbl.find floods v) [])
            used
      in
      let routes =
        List.map
          (fun (d, v, p) ->
            let to_server = List.rev (Tree.path_up v ~ancestor:s) in
            (d, { Pseudo_tree.to_server; server = v; onward = p }))
          assignments
      in
      Ok
        (Pseudo_tree.make ~request ~servers:used
           ~edge_uses:(Pseudo_tree.edge_uses_of_list uses)
           ~routes)
    end

type result = {
  tree : Pseudo_tree.t;
  servers : int list;
  cost : float;
}

let solve ?(k = 1) net request =
  if k < 1 then invalid_arg "Inline_tree.solve: K must be at least 1";
  let g = Sdn.Network.graph net in
  let b = request.Sdn.Request.bandwidth in
  let weight e = b *. Sdn.Network.link_unit_cost net e in
  let s = request.Sdn.Request.source in
  let terminals = s :: request.Sdn.Request.destinations in
  match Mcgraph.Steiner.kmb g ~weight ~terminals with
  | None -> Error "destinations unreachable"
  | Some base_tree ->
    let in_tree = Hashtbl.create 32 in
    Hashtbl.replace in_tree s ();
    List.iter
      (fun e ->
        let u, v = G.endpoints g e in
        Hashtbl.replace in_tree u ();
        Hashtbl.replace in_tree v ())
      base_tree;
    (* attachment path for off-tree servers: shortest path cut at the
       first node already on the tree. The lazy engine computes one tree
       per off-tree server (for the distances) plus one per chosen
       attachment point (for the path) — not one per graph node *)
    let eng =
      Sp.create g ~weight ~epoch:(fun () -> Sdn.Network.weight_epoch net)
    in
    let attach v =
      if Hashtbl.mem in_tree v then Some []
      else begin
        let best =
          Hashtbl.fold
            (fun x () best ->
              let d = Sp.dist eng v x in
              match best with
              | Some (d', _) when d' <= d -> best
              | _ when d = infinity -> best
              | _ -> Some (d, x))
            in_tree None
        in
        match best with
        | None -> None
        | Some (_, x) -> (
          match Sp.path eng x v with
          | None -> None
          | Some p ->
            (* cut at the first departure from the tree *)
            let rec take node acc = function
              | [] -> List.rev acc
              | e :: rest ->
                let nxt = G.other_endpoint g e node in
                if Hashtbl.mem in_tree nxt && nxt <> v then take nxt [] rest
                else take nxt (e :: acc) rest
            in
            Some (take x [] p))
      end
    in
    let candidates =
      List.filter_map
        (fun v -> Option.map (fun p -> (v, p)) (attach v))
        (Sdn.Network.servers net)
    in
    if candidates = [] then Error "no attachable server"
    else begin
      let best = ref None in
      Combinations.iter_subsets_up_to candidates k (fun subset ->
          let extended =
            List.sort_uniq compare
              (base_tree @ List.concat_map snd subset)
          in
          (* extensions may close cycles with each other; re-tree *)
          let treed = Mcgraph.Mst.kruskal_subset g ~weight ~edges:extended in
          let on_tree = Hashtbl.create 16 in
          List.iter
            (fun e ->
              let u, v = G.endpoints g e in
              Hashtbl.replace on_tree u ();
              Hashtbl.replace on_tree v ())
            treed;
          let servers =
            List.filter (fun (v, _) -> Hashtbl.mem on_tree v) subset
            |> List.map fst
          in
          if servers <> [] then
            match derive net request ~tree:treed ~servers with
            | Error _ -> ()
            | Ok pt ->
              let c = Pseudo_tree.cost net pt in
              (match !best with
              | Some (c', _) when c' <= c -> ()
              | _ -> best := Some (c, pt)))
        ;
      match !best with
      | None -> Error "no feasible in-line placement"
      | Some (c, pt) ->
        Ok { tree = pt; servers = pt.Pseudo_tree.servers; cost = c }
    end
