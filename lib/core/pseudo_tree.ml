module G = Mcgraph.Graph

type route = {
  to_server : int list;
  server : int;
  onward : int list;
}

type t = {
  request : Sdn.Request.t;
  servers : int list;
  edge_uses : (int * int) list;
  routes : (int * route) list;
}

(* sort, then count each run of equal ids: ascending (edge, uses) *)
let edge_uses_of_list edges =
  let rec runs acc = function
    | [] -> List.rev acc
    | e :: rest -> (
      match acc with
      | (e', c) :: acc' when e' = e -> runs ((e, c + 1) :: acc') rest
      | _ -> runs ((e, 1) :: acc) rest)
  in
  runs [] (List.sort Int.compare edges)

(* strictly ascending edge ids: already sorted and merged *)
let rec ascending = function
  | (e, _) :: ((e', _) :: _ as rest) -> e < e' && ascending rest
  | _ -> true

let make ~request ~servers ~edge_uses ~routes =
  if servers = [] then invalid_arg "Pseudo_tree.make: no servers";
  List.iter
    (fun (_, c) ->
      if c <= 0 then invalid_arg "Pseudo_tree.make: non-positive multiplicity")
    edge_uses;
  let merged =
    if ascending edge_uses then edge_uses
    else
      edge_uses_of_list
        (List.concat_map (fun (e, c) -> List.init c (fun _ -> e)) edge_uses)
  in
  { request; servers = List.sort_uniq Int.compare servers; edge_uses = merged; routes }

(* [support] rooted at the source; per server (distinct, ascending): its
   source path, shared by the routes it serves, and its backtrack up to
   the LCA of it and those destinations *)
let of_support g ~support ~request ~server_of =
  let module Tree = Mcgraph.Tree in
  let s = request.Sdn.Request.source in
  let dests = request.Sdn.Request.destinations in
  Tree.root g ~root:s support;
  let servers =
    List.sort Int.compare
      (List.fold_left
         (fun acc d ->
           let v = server_of d in
           if List.mem v acc then acc else v :: acc)
         [] dests)
  in
  let legs =
    List.map
      (fun v ->
        let mine = List.filter (fun d -> server_of d = v) dests in
        ( v,
          Tree.path_between s v,
          Tree.path_up v ~ancestor:(Tree.lca v mine) ))
      servers
  in
  let routes =
    List.map
      (fun d ->
        let v = server_of d in
        let _, to_server, _ = List.find (fun (v', _, _) -> v' = v) legs in
        (d, { to_server; server = v; onward = Tree.path_between v d }))
      dests
  in
  (* the support plus every backtrack, in any order: edge_uses_of_list
     sorts the multiset *)
  let uses =
    List.fold_left (fun acc (_, _, up) -> List.rev_append up acc) support legs
  in
  make ~request ~servers ~edge_uses:(edge_uses_of_list uses) ~routes

let cost net t =
  let b = t.request.Sdn.Request.bandwidth in
  let bw =
    List.fold_left
      (fun acc (e, uses) ->
        acc +. (float_of_int uses *. b *. Sdn.Network.link_unit_cost net e))
      0.0 t.edge_uses
  in
  let cpu =
    List.fold_left
      (fun acc v -> acc +. Sdn.Network.chain_cost net v t.request.Sdn.Request.chain)
      0.0 t.servers
  in
  bw +. cpu


let total_edge_traversals t =
  List.fold_left (fun acc (_, c) -> acc + c) 0 t.edge_uses

let allocation t =
  let b = t.request.Sdn.Request.bandwidth in
  let demand = Sdn.Request.demand_mhz t.request in
  {
    Sdn.Network.links =
      List.map (fun (e, uses) -> (e, float_of_int uses *. b)) t.edge_uses;
    nodes = List.map (fun v -> (v, demand)) t.servers;
  }

(* walk an edge-id list from [start]; return the final node or an error *)
let walk g start edges =
  let rec go node = function
    | [] -> Ok node
    | e :: rest ->
      if e < 0 || e >= G.m g then Error (Printf.sprintf "bad edge id %d" e)
      else begin
        let u, v = G.endpoints g e in
        if u = node then go v rest
        else if v = node then go u rest
        else Error (Printf.sprintf "edge %d not incident to node %d" e node)
      end
  in
  go start edges

let validate net t =
  let g = Sdn.Network.graph net in
  let req = t.request in
  let support = Hashtbl.create 16 in
  List.iter (fun (e, _) -> Hashtbl.replace support e ()) t.edge_uses;
  let ( let* ) r f = Result.bind r f in
  let* () =
    if List.for_all (Sdn.Network.is_server net) t.servers then Ok ()
    else Error "a chosen placement is not a server"
  in
  let* () =
    match
      List.find_opt (fun (e, _) -> e < 0 || e >= G.m g) t.edge_uses
    with
    | Some (e, _) -> Error (Printf.sprintf "invalid edge id %d" e)
    | None -> Ok ()
  in
  let check_dest d =
    match List.assoc_opt d t.routes with
    | None -> Error (Printf.sprintf "destination %d has no witness route" d)
    | Some r ->
      let* () =
        if List.mem r.server t.servers then Ok ()
        else Error (Printf.sprintf "witness for %d uses unplaced server %d" d r.server)
      in
      let* reached = walk g req.Sdn.Request.source r.to_server in
      let* () =
        if reached = r.server then Ok ()
        else
          Error
            (Printf.sprintf "witness for %d: to_server ends at %d, not server %d"
               d reached r.server)
      in
      let* reached = walk g r.server r.onward in
      let* () =
        if reached = d then Ok ()
        else
          Error
            (Printf.sprintf "witness for %d: onward ends at %d" d reached)
      in
      if List.for_all (Hashtbl.mem support) (r.to_server @ r.onward) then Ok ()
      else Error (Printf.sprintf "witness for %d leaves the edge-use support" d)
  in
  List.fold_left
    (fun acc d -> Result.bind acc (fun () -> check_dest d))
    (Ok ())
    req.Sdn.Request.destinations

let pp ppf t =
  Format.fprintf ppf "pseudo-tree(req=%d, servers={%s}, traversals=%d)"
    t.request.Sdn.Request.id
    (String.concat "," (List.map string_of_int t.servers))
    (total_edge_traversals t)
