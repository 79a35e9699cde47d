(* Exact optima on small instances: the references for the 2K bound.

   [optimal_one_server] is the K = 1 optimum under the linear cost model,
   min_v [b d(s, v) + c_v(SC) + SteinerOPT({v} + D)]. [optimal ?k]
   (default 3, at most 6 destinations) enumerates server subsets and
   destination assignments: an optimal Steiner tree carries the
   unprocessed stream to the chosen servers and each server spans its
   destinations with another; every pseudo-multicast routing is
   dominated by such a structure, so this is a true lower bound realised
   by a valid routing. [assignment] maps destination -> serving server.
   Steiner optima come from [Steiner_exact], so [|D_k| + 1 <= 15]. *)

open Nfv_multicast

module Sp = Mcgraph.Sp_engine

type result = {
  tree : Pseudo_tree.t;
  server : int;
  cost : float;
}

type multi_result = {
  mtree : Pseudo_tree.t;
  servers : int list;
  assignment : (int * int) list;
  mcost : float;
}

let optimal ?(k = 3) net request =
  let g = Sdn.Network.graph net in
  let b = request.Sdn.Request.bandwidth in
  let s = request.Sdn.Request.source in
  let dests = request.Sdn.Request.destinations in
  if List.length dests > 6 then
    invalid_arg "Exact.optimal: destination set too large";
  if k < 1 then invalid_arg "Exact.optimal: K must be at least 1";
  let weight e = b *. Sdn.Network.link_unit_cost net e in
  (* memoised exact Steiner trees keyed by the sorted terminal set *)
  let memo = Hashtbl.create 64 in
  let steiner terminals =
    let key = List.sort_uniq compare terminals in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      let r =
        match Steiner_exact.exact g ~weight ~terminals:key with
        | None -> None
        | Some edges -> Some (edges, Mcgraph.Steiner.tree_cost ~weight edges)
      in
      Hashtbl.add memo key r;
      r
  in
  (* enumerate destination assignments onto the subset's servers; every
     server must serve someone (unused servers belong to smaller subsets) *)
  let best = ref None in
  let consider subset =
    let slots = Array.of_list subset in
    let l = Array.length slots in
    let buckets = Array.make l [] in
    let rec assign = function
      | [] ->
        if Array.for_all (fun b -> b <> []) buckets then begin
          match steiner (s :: subset) with
          | None -> ()
          | Some (t0, c0) ->
            let ok = ref true and total = ref c0 and parts = ref [] in
            Array.iteri
              (fun i bucket ->
                if !ok then begin
                  let v = slots.(i) in
                  match steiner (v :: bucket) with
                  | None -> ok := false
                  | Some (tv, cv) ->
                    total :=
                      !total +. cv +. Sdn.Network.chain_cost net v request.Sdn.Request.chain;
                    parts := (v, bucket, tv) :: !parts
                end)
              buckets;
            if !ok then begin
              match !best with
              | Some (c, _, _, _) when c <= !total -> ()
              | _ -> best := Some (!total, subset, t0, !parts)
            end
        end
      | d :: rest ->
        for i = 0 to l - 1 do
          buckets.(i) <- d :: buckets.(i);
          assign rest;
          buckets.(i) <- List.tl buckets.(i)
        done
    in
    assign dests
  in
  Combinations.iter_subsets_up_to (Sdn.Network.servers net) k consider;
  match !best with
  | None -> Error "no reachable server set spanning the destinations"
  | Some (cost, subset, t0, parts) ->
    let unprocessed = Ref_tree.of_edges g ~root:s t0 in
    let routes =
      List.concat_map
        (fun (v, bucket, tv) ->
          let to_server =
            List.rev (Ref_tree.path_up unprocessed v ~ancestor:s)
          in
          let rooted = Ref_tree.of_edges g ~root:v tv in
          List.map
            (fun d ->
              let onward = List.rev (Ref_tree.path_up rooted d ~ancestor:v) in
              (d, { Pseudo_tree.to_server; server = v; onward }))
            bucket)
        parts
    in
    let uses = t0 @ List.concat_map (fun (_, _, tv) -> tv) parts in
    let tree =
      Pseudo_tree.make ~request ~servers:subset
        ~edge_uses:(Pseudo_tree.edge_uses_of_list uses)
        ~routes
    in
    Ok
      {
        mtree = tree;
        servers = List.sort compare subset;
        assignment =
          List.concat_map (fun (v, bucket, _) -> List.map (fun d -> (d, v)) bucket) parts
          |> List.sort compare;
        mcost = cost;
      }

let optimal_one_server net request =
  let g = Sdn.Network.graph net in
  let b = request.Sdn.Request.bandwidth in
  let s = request.Sdn.Request.source in
  let weight e = b *. Sdn.Network.link_unit_cost net e in
  (* only distances/paths from the source are needed: one lazy Dijkstra *)
  let eng =
    Sp.create g ~weight ~epoch:(fun () -> Sdn.Network.weight_epoch net)
  in
  let consider best v =
    let d_sv = Sp.dist eng s v in
    if d_sv = infinity then best
    else begin
      let terminals = v :: request.Sdn.Request.destinations in
      match Steiner_exact.exact g ~weight ~terminals with
      | None -> best
      | Some tree_edges ->
        let c =
          d_sv
          +. Sdn.Network.chain_cost net v request.Sdn.Request.chain
          +. Mcgraph.Steiner.tree_cost ~weight tree_edges
        in
        (match best with
        | Some (c', _, _) when c' <= c -> best
        | _ -> Some (c, v, tree_edges))
    end
  in
  match List.fold_left consider None (Sdn.Network.servers net) with
  | None -> Error "no reachable server spanning the destinations"
  | Some (_, v, tree_edges) ->
    let to_server = Option.get (Sp.path eng s v) in
    let rooted = Ref_tree.of_edges g ~root:v tree_edges in
    let routes =
      List.map
        (fun d ->
          let onward = List.rev (Ref_tree.path_up rooted d ~ancestor:v) in
          (d, { Pseudo_tree.to_server; server = v; onward }))
        request.Sdn.Request.destinations
    in
    let tree =
      Pseudo_tree.make ~request ~servers:[ v ]
        ~edge_uses:(Pseudo_tree.edge_uses_of_list (to_server @ tree_edges))
        ~routes
    in
    Ok { tree; server = v; cost = Pseudo_tree.cost net tree }
