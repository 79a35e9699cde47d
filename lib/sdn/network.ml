module G = Mcgraph.Graph
module Rng = Topology.Rng
module Obs = Nfv_obs.Obs

(* residual-state telemetry, aggregated over every network instance *)
let c_allocations = Obs.Counter.make "network.allocations"
let c_alloc_rejections = Obs.Counter.make "network.alloc_rejections"
let c_releases = Obs.Counter.make "network.releases"
let c_resets = Obs.Counter.make "network.resets"
let c_epoch_bumps = Obs.Counter.make "network.epoch_bumps"
(* resources whose released residual [min cap] cut back to capacity *)
let c_release_clamps = Obs.Counter.make "network.release_clamps"

type t = {
  topo : Topology.Topo.t;
  server_list : int list;
  server_flag : bool array;
  link_cap : float array;
  link_res : float array;
  srv_cap : float array;
  srv_res : float array;
  link_cost : float array;
  srv_cost : float array;
  link_del : float array;
  mutable epoch : int;   (* bumped whenever residual state changes *)
}

type profile = {
  link_capacity : float * float;
  server_capacity : float * float;
  link_unit_cost : float * float;
  server_unit_cost : float * float;
  link_delay : float * float;
}

let default_profile =
  {
    link_capacity = (1_000.0, 10_000.0);
    server_capacity = (4_000.0, 12_000.0);
    link_unit_cost = (0.02, 0.2);
    server_unit_cost = (0.005, 0.02);
    link_delay = (0.5, 2.0);
  }

let uniform_profile ~link_capacity ~server_capacity =
  {
    link_capacity = (link_capacity, link_capacity);
    server_capacity = (server_capacity, server_capacity);
    link_unit_cost = (1.0, 1.0);
    server_unit_cost = (1.0, 1.0);
    link_delay = (1.0, 1.0);
  }

let draw rng (lo, hi) = if lo = hi then lo else Rng.float_range rng lo hi

let make ?(profile = default_profile) ~rng ~servers topo =
  let g = topo.Topology.Topo.graph in
  let nn = G.n g and mm = G.m g in
  if servers = [] then invalid_arg "Network.make: no servers";
  let uniq = List.sort_uniq compare servers in
  if List.length uniq <> List.length servers then
    invalid_arg "Network.make: duplicate servers";
  List.iter
    (fun v -> if v < 0 || v >= nn then invalid_arg "Network.make: server out of range")
    servers;
  let server_flag = Array.make nn false in
  List.iter (fun v -> server_flag.(v) <- true) servers;
  let link_cap = Array.init mm (fun _ -> draw rng profile.link_capacity) in
  let link_cost = Array.init mm (fun _ -> draw rng profile.link_unit_cost) in
  let link_del = Array.init mm (fun _ -> draw rng profile.link_delay) in
  let srv_cap = Array.make nn 0.0 and srv_cost = Array.make nn 0.0 in
  List.iter
    (fun v ->
      srv_cap.(v) <- draw rng profile.server_capacity;
      srv_cost.(v) <- draw rng profile.server_unit_cost)
    servers;
  {
    topo;
    server_list = uniq;
    server_flag;
    link_cap;
    link_res = Array.copy link_cap;
    srv_cap;
    srv_res = Array.copy srv_cap;
    link_cost;
    srv_cost;
    link_del;
    epoch = 0;
  }

let make_explicit ?link_residuals ?server_residuals ?link_delays ~topology:topo
    ~servers ~link_capacities ~link_unit_costs () =
  let g = topo.Topology.Topo.graph in
  let nn = G.n g and mm = G.m g in
  if servers = [] then invalid_arg "Network.make_explicit: no servers";
  if Array.length link_capacities <> mm || Array.length link_unit_costs <> mm
  then invalid_arg "Network.make_explicit: link array size mismatch";
  let server_flag = Array.make nn false in
  let srv_cap = Array.make nn 0.0 and srv_cost = Array.make nn 0.0 in
  List.iter
    (fun (v, cap, cost) ->
      if v < 0 || v >= nn then invalid_arg "Network.make_explicit: server range";
      if server_flag.(v) then invalid_arg "Network.make_explicit: duplicate server";
      if cap <= 0.0 then invalid_arg "Network.make_explicit: non-positive capacity";
      server_flag.(v) <- true;
      srv_cap.(v) <- cap;
      srv_cost.(v) <- cost)
    servers;
  let link_res =
    match link_residuals with
    | None -> Array.copy link_capacities
    | Some r ->
      if Array.length r <> mm then
        invalid_arg "Network.make_explicit: residual size mismatch";
      Array.iteri
        (fun e x ->
          if x < -1e-9 || x > link_capacities.(e) +. 1e-9 then
            invalid_arg "Network.make_explicit: residual out of range")
        r;
      Array.copy r
  in
  let srv_res = Array.copy srv_cap in
  (match server_residuals with
  | None -> ()
  | Some rs ->
    List.iter
      (fun (v, x) ->
        if v < 0 || v >= nn || not server_flag.(v) then
          invalid_arg "Network.make_explicit: residual for non-server";
        if x < -1e-9 || x > srv_cap.(v) +. 1e-9 then
          invalid_arg "Network.make_explicit: residual out of range";
        srv_res.(v) <- x)
      rs);
  {
    topo;
    server_list = List.sort compare (List.map (fun (v, _, _) -> v) servers);
    server_flag;
    link_cap = Array.copy link_capacities;
    link_res;
    srv_cap;
    srv_res;
    link_cost = Array.copy link_unit_costs;
    srv_cost;
    link_del =
      (match link_delays with
      | None -> Array.make mm 1.0
      | Some d ->
        if Array.length d <> mm then
          invalid_arg "Network.make_explicit: delay size mismatch";
        Array.copy d);
    epoch = 0;
  }

let make_random_servers ?profile ?(fraction = 0.1) ~rng topo =
  let nn = Mcgraph.Graph.n topo.Topology.Topo.graph in
  let count = max 1 (int_of_float (Float.round (fraction *. float_of_int nn))) in
  let servers = Rng.sample_without_replacement rng count nn in
  make ?profile ~rng ~servers topo

let topology t = t.topo
let graph t = t.topo.Topology.Topo.graph
let n t = G.n (graph t)
let m t = G.m (graph t)
let servers t = t.server_list
let is_server t v = v >= 0 && v < Array.length t.server_flag && t.server_flag.(v)
let server_count t = List.length t.server_list

let check_link t e name =
  if e < 0 || e >= Array.length t.link_cap then invalid_arg (name ^ ": bad edge")

let check_server t v name =
  if not (is_server t v) then invalid_arg (name ^ ": not a server")

let link_capacity t e = check_link t e "Network.link_capacity"; t.link_cap.(e)
let link_residual t e = check_link t e "Network.link_residual"; t.link_res.(e)
let server_capacity t v = check_server t v "Network.server_capacity"; t.srv_cap.(v)
let server_residual t v = check_server t v "Network.server_residual"; t.srv_res.(v)
let link_unit_cost t e = check_link t e "Network.link_unit_cost"; t.link_cost.(e)
let link_delay t e = check_link t e "Network.link_delay"; t.link_del.(e)
let server_unit_cost t v = check_server t v "Network.server_unit_cost"; t.srv_cost.(v)

let chain_cost t v chain = server_unit_cost t v *. Vnf.chain_demand_mhz chain

(* the residual is read in place, not through [link_residual] /
   [server_residual]: those return a boxed float on every call, and the
   admission checks run once per link or server on every bucket count,
   component relabel and usable-server filter *)
let link_admits t e amount =
  check_link t e "Network.link_residual";
  t.link_res.(e) >= amount -. 1e-9

let server_admits t v amount =
  check_server t v "Network.server_residual";
  t.srv_res.(v) >= amount -. 1e-9

type allocation = {
  links : (int * float) list;
  nodes : (int * float) list;
}

(* Strictly ascending ids with amounts that are neither negative nor
   -0.0 already are their own aggregate (no id repeats, and the table
   below would sum each amount onto 0.0, which only changes a -0.0).
   [Pseudo_tree.allocation] always has this form. *)
let rec ascending_nonneg = function
  | [] -> true
  | [ (_, v) ] -> not (Float.sign_bit v)
  | (k, v) :: ((k', _) :: _ as rest) ->
    k < k' && (not (Float.sign_bit v)) && ascending_nonneg rest

(* sum repeated resources so atomicity checks see aggregate demand *)
let aggregate pairs =
  if ascending_nonneg pairs then pairs
  else begin
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (k, v) ->
        if v < 0.0 then invalid_arg "Network: negative allocation amount";
        let cur = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
        Hashtbl.replace tbl k (cur +. v))
      pairs;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  end

let alloc_failure t alloc =
  let link_issue =
    List.find_opt (fun (e, amt) -> not (link_admits t e amt)) (aggregate alloc.links)
  in
  match link_issue with
  | Some (e, amt) ->
    Some (Printf.sprintf "link %d: need %.1f, residual %.1f" e amt t.link_res.(e))
  | None -> (
    let node_issue =
      List.find_opt
        (fun (v, amt) ->
          check_server t v "Network.allocate";
          not (server_admits t v amt))
        (aggregate alloc.nodes)
    in
    match node_issue with
    | Some (v, amt) ->
      Some (Printf.sprintf "server %d: need %.1f, residual %.1f" v amt t.srv_res.(v))
    | None -> None)

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  Obs.Counter.incr c_epoch_bumps

let allocate t alloc =
  match alloc_failure t alloc with
  | Some msg ->
    Obs.Counter.incr c_alloc_rejections;
    Error msg
  | None ->
    List.iter (fun (e, amt) -> t.link_res.(e) <- t.link_res.(e) -. amt) alloc.links;
    List.iter (fun (v, amt) -> t.srv_res.(v) <- t.srv_res.(v) -. amt) alloc.nodes;
    Obs.Counter.incr c_allocations;
    bump_epoch t;
    Ok ()

let release t alloc =
  let links = aggregate alloc.links and nodes = aggregate alloc.nodes in
  List.iter
    (fun (e, amt) ->
      check_link t e "Network.release";
      if t.link_res.(e) +. amt > t.link_cap.(e) +. 1e-6 then
        invalid_arg "Network.release: link over-release")
    links;
  List.iter
    (fun (v, amt) ->
      check_server t v "Network.release";
      if t.srv_res.(v) +. amt > t.srv_cap.(v) +. 1e-6 then
        invalid_arg "Network.release: server over-release")
    nodes;
  (* the over-release slack lets a sum land just above capacity; the
     clamp cuts it back, and each cut is counted *)
  let restore res cap (i, amt) =
    let x = res.(i) +. amt in
    if x > cap.(i) then begin
      Obs.Counter.incr c_release_clamps;
      res.(i) <- cap.(i)
    end
    else res.(i) <- x
  in
  List.iter (restore t.link_res t.link_cap) links;
  List.iter (restore t.srv_res t.srv_cap) nodes;
  Obs.Counter.incr c_releases;
  bump_epoch t

let reset t =
  Array.blit t.link_cap 0 t.link_res 0 (Array.length t.link_cap);
  Array.blit t.srv_cap 0 t.srv_res 0 (Array.length t.srv_cap);
  Obs.Counter.incr c_resets;
  bump_epoch t

let weight_epoch t = t.epoch

let link_utilization t e =
  check_link t e "Network.link_utilization";
  1.0 -. (t.link_res.(e) /. t.link_cap.(e))

let mean_link_utilization t =
  let mm = Array.length t.link_cap in
  if mm = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for e = 0 to mm - 1 do
      sum := !sum +. link_utilization t e
    done;
    !sum /. float_of_int mm
  end

let max_link_utilization t =
  let best = ref 0.0 in
  for e = 0 to Array.length t.link_cap - 1 do
    if link_utilization t e > !best then best := link_utilization t e
  done;
  !best

let jain_fairness t =
  let mm = Array.length t.link_cap in
  let sum = ref 0.0 and sq = ref 0.0 in
  for e = 0 to mm - 1 do
    let u = link_utilization t e in
    sum := !sum +. u;
    sq := !sq +. (u *. u)
  done;
  if !sq = 0.0 then 1.0 else !sum *. !sum /. (float_of_int mm *. !sq)

let pp ppf t =
  Format.fprintf ppf "network(%s: n=%d, m=%d, servers=%d)"
    t.topo.Topology.Topo.name (n t) (m t) (server_count t)
