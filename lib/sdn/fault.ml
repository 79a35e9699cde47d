module Rng = Topology.Rng
module Obs = Nfv_obs.Obs

(* per-kind injection telemetry, aggregated over every controller *)
let c_link_down = Obs.Counter.make "fault.injected.link_down"
let c_link_up = Obs.Counter.make "fault.injected.link_up"
let c_server_down = Obs.Counter.make "fault.injected.server_down"
let c_server_up = Obs.Counter.make "fault.injected.server_up"
let c_degrade_link = Obs.Counter.make "fault.injected.degrade_link"
let c_degrade_server = Obs.Counter.make "fault.injected.degrade_server"
let c_victims = Obs.Counter.make "fault.victims"

type event =
  | Link_down of int
  | Link_up of int
  | Server_down of int
  | Server_up of int
  | Degrade_link of int * float
  | Degrade_server of int * float

type stamped = { at : float; event : event }
type timeline = stamped list

type t = {
  net : Network.t;
  link_down : bool array;       (* edge id -> fully out? *)
  srv_down : bool array;        (* node id -> fully out? (servers only) *)
  link_conf : float array;      (* Mbps confiscated per edge *)
  srv_conf : float array;       (* MHz confiscated per server node *)
}

let create net =
  {
    net;
    link_down = Array.make (Network.m net) false;
    srv_down = Array.make (Network.n net) false;
    link_conf = Array.make (Network.m net) 0.0;
    srv_conf = Array.make (Network.n net) 0.0;
  }

let link_is_down t e = e >= 0 && e < Array.length t.link_down && t.link_down.(e)
let server_is_down t v = v >= 0 && v < Array.length t.srv_down && t.srv_down.(v)

let check_link t e name =
  if e < 0 || e >= Network.m t.net then invalid_arg (name ^ ": bad edge")

let check_server t v name =
  if not (Network.is_server t.net v) then invalid_arg (name ^ ": not a server")

let check_fraction f name =
  if not (f >= 0.0 && f <= 1.0) then invalid_arg (name ^ ": fraction outside [0, 1]")

let confiscated_link t e =
  check_link t e "Fault.confiscated_link";
  t.link_conf.(e)

let confiscated_server t v =
  check_server t v "Fault.confiscated_server";
  t.srv_conf.(v)

let holds_link alloc e =
  List.exists (fun (e', amt) -> e' = e && amt > 0.0) alloc.Network.links

let holds_server alloc v =
  List.exists (fun (v', amt) -> v' = v && amt > 0.0) alloc.Network.nodes

(* release the allocations of every live session matching [pred], in
   increasing id order; returns the evicted ids (already ascending) *)
let evict_all ~live pred =
  let victims =
    List.filter (fun (_, alloc) -> pred alloc) live
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.map fst victims, victims

(* confiscate [amount] (clamped to the current residual) from one
   resource via an ordinary allocation, so the epoch bumps and every
   cached shortest-path tree is invalidated the normal way *)
let confiscate_link t e amount =
  let amount = Float.min amount (Network.link_residual t.net e) in
  if amount > 0.0 then begin
    (match Network.allocate t.net { Network.links = [ (e, amount) ]; nodes = [] } with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Fault: link confiscation failed: " ^ msg));
    t.link_conf.(e) <- t.link_conf.(e) +. amount
  end

let confiscate_server t v amount =
  let amount = Float.min amount (Network.server_residual t.net v) in
  if amount > 0.0 then begin
    (match Network.allocate t.net { Network.links = []; nodes = [ (v, amount) ] } with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Fault: server confiscation failed: " ^ msg));
    t.srv_conf.(v) <- t.srv_conf.(v) +. amount
  end

let restore_link t e =
  if t.link_conf.(e) > 0.0 then begin
    Network.release t.net { Network.links = [ (e, t.link_conf.(e)) ]; nodes = [] };
    t.link_conf.(e) <- 0.0
  end

let restore_server t v =
  if t.srv_conf.(v) > 0.0 then begin
    Network.release t.net { Network.links = []; nodes = [ (v, t.srv_conf.(v)) ] };
    t.srv_conf.(v) <- 0.0
  end

let incr_kind = function
  | Link_down _ -> Obs.Counter.incr c_link_down
  | Link_up _ -> Obs.Counter.incr c_link_up
  | Server_down _ -> Obs.Counter.incr c_server_down
  | Server_up _ -> Obs.Counter.incr c_server_up
  | Degrade_link _ -> Obs.Counter.incr c_degrade_link
  | Degrade_server _ -> Obs.Counter.incr c_degrade_server

let inject t ~live event =
  incr_kind event;
  let victims =
    match event with
    | Link_down e ->
      check_link t e "Fault.inject";
      if t.link_down.(e) then []
      else begin
        let ids, victims = evict_all ~live (fun a -> holds_link a e) in
        List.iter (fun (_, alloc) -> Network.release t.net alloc) victims;
        confiscate_link t e infinity;
        t.link_down.(e) <- true;
        ids
      end
    | Server_down v ->
      check_server t v "Fault.inject";
      if t.srv_down.(v) then []
      else begin
        let ids, victims = evict_all ~live (fun a -> holds_server a v) in
        List.iter (fun (_, alloc) -> Network.release t.net alloc) victims;
        confiscate_server t v infinity;
        t.srv_down.(v) <- true;
        ids
      end
    | Link_up e ->
      check_link t e "Fault.inject";
      if not t.link_down.(e) then []
      else begin
        restore_link t e;
        t.link_down.(e) <- false;
        []
      end
    | Server_up v ->
      check_server t v "Fault.inject";
      if not t.srv_down.(v) then []
      else begin
        restore_server t v;
        t.srv_down.(v) <- false;
        []
      end
    | Degrade_link (e, frac) ->
      check_link t e "Fault.inject";
      check_fraction frac "Fault.inject";
      if t.link_down.(e) then []
      else begin
        let target = frac *. Network.link_capacity t.net e in
        let victims = ref [] in
        let ordered = List.sort (fun (a, _) (b, _) -> compare a b) live in
        List.iter
          (fun (id, alloc) ->
            let missing = target -. t.link_conf.(e) in
            if
              Network.link_residual t.net e < missing -. 1e-9
              && holds_link alloc e
            then begin
              Network.release t.net alloc;
              victims := id :: !victims
            end)
          ordered;
        confiscate_link t e (target -. t.link_conf.(e));
        List.rev !victims
      end
    | Degrade_server (v, frac) ->
      check_server t v "Fault.inject";
      check_fraction frac "Fault.inject";
      if t.srv_down.(v) then []
      else begin
        let target = frac *. Network.server_capacity t.net v in
        let victims = ref [] in
        let ordered = List.sort (fun (a, _) (b, _) -> compare a b) live in
        List.iter
          (fun (id, alloc) ->
            let missing = target -. t.srv_conf.(v) in
            if
              Network.server_residual t.net v < missing -. 1e-9
              && holds_server alloc v
            then begin
              Network.release t.net alloc;
              victims := id :: !victims
            end)
          ordered;
        confiscate_server t v (target -. t.srv_conf.(v));
        List.rev !victims
      end
  in
  Obs.Counter.add c_victims (List.length victims);
  victims

let heal_all t =
  Array.iteri (fun e _ -> restore_link t e) t.link_conf;
  List.iter (fun v -> restore_server t v) (Network.servers t.net);
  Array.fill t.link_down 0 (Array.length t.link_down) false;
  Array.fill t.srv_down 0 (Array.length t.srv_down) false

(* the failure-kind mix: 35 % link outage, 20 % server outage, 25 %
   link degradation, 20 % server degradation, all over uniform targets;
   a degradation confiscates half the target's capacity *)
let draw_failure rng ~m ~servers =
  let u = Rng.float rng 1.0 in
  if u < 0.35 && m > 0 then Link_down (Rng.int rng m)
  else if u < 0.55 then Server_down (Rng.choose rng servers)
  else if u < 0.8 && m > 0 then Degrade_link (Rng.int rng m, 0.5)
  else Degrade_server (Rng.choose rng servers, 0.5)

let heal_of = function
  | Link_down e -> Some (Link_up e)
  | Server_down v -> Some (Server_up v)
  | Degrade_link _ | Degrade_server _ | Link_up _ | Server_up _ -> None

let random_timeline ?heal_after ~rng ~slots ~events net =
  if slots <= 0 then invalid_arg "Fault.random_timeline: slots <= 0";
  if events < 0 then invalid_arg "Fault.random_timeline: events < 0";
  (match heal_after with
  | Some h when h <= 0 -> invalid_arg "Fault.random_timeline: heal_after <= 0"
  | _ -> ());
  let m = Network.m net in
  let servers = Array.of_list (Network.servers net) in
  let failures =
    List.init events (fun _ ->
        let at = float_of_int (Rng.int rng slots) in
        let event = draw_failure rng ~m ~servers in
        { at; event })
  in
  let heals =
    match heal_after with
    | None -> []
    | Some h ->
      List.filter_map
        (fun f ->
          Option.map
            (fun ev -> { at = f.at +. float_of_int h; event = ev })
            (heal_of f.event))
        failures
  in
  List.stable_sort (fun a b -> compare a.at b.at) (failures @ heals)

(* ---- shared-risk link groups ------------------------------------------ *)

let srlg_partition ?(groups = 8) ~rng net =
  if groups <= 0 then invalid_arg "Fault.srlg_partition: groups <= 0";
  let m = Network.m net in
  if m = 0 then [||]
  else begin
    let k = min groups m in
    let assigned =
      match (Network.topology net).Topology.Topo.coords with
      | Some c ->
        (* geometric risk: seed [k] distinct links, then put every link
           in the group of the seed whose midpoint is closest (ties to
           the lowest group index) — proximate links fail together *)
        let g = Network.graph net in
        let mid e =
          let u, v = Mcgraph.Graph.endpoints g e in
          let xu, yu = c.(u) and xv, yv = c.(v) in
          ((xu +. xv) /. 2.0, (yu +. yv) /. 2.0)
        in
        let centers =
          Array.of_list (Rng.sample_without_replacement rng k m)
        in
        let center_mid = Array.map mid centers in
        Array.init m (fun e ->
            let xe, ye = mid e in
            let best = ref 0 and bd = ref infinity in
            Array.iteri
              (fun i (xc, yc) ->
                let d = ((xe -. xc) ** 2.0) +. ((ye -. yc) ** 2.0) in
                if d < !bd then begin
                  bd := d;
                  best := i
                end)
              center_mid;
            !best)
      | None ->
        (* no embedding (e.g. Rocketfuel): a seeded partition — shuffle
           the links and deal them round-robin into [k] groups *)
        let order = Array.init m Fun.id in
        Rng.shuffle rng order;
        let group_of = Array.make m 0 in
        Array.iteri (fun i e -> group_of.(e) <- i mod k) order;
        group_of
    in
    let buckets = Array.make k [] in
    for e = m - 1 downto 0 do
      buckets.(assigned.(e)) <- e :: buckets.(assigned.(e))
    done;
    Array.of_list (List.filter (fun l -> l <> []) (Array.to_list buckets))
  end

let srlg_timeline ?heal_after ~rng ~horizon ~events groups =
  if not (horizon > 0.0) then invalid_arg "Fault.srlg_timeline: horizon <= 0";
  if events < 0 then invalid_arg "Fault.srlg_timeline: events < 0";
  (match heal_after with
  | Some h when not (h > 0.0) ->
    invalid_arg "Fault.srlg_timeline: heal_after <= 0"
  | _ -> ());
  if Array.length groups = 0 then
    invalid_arg "Fault.srlg_timeline: no groups";
  let cuts =
    List.init events (fun _ ->
        let at = Rng.float rng horizon in
        let grp = Rng.int rng (Array.length groups) in
        (at, groups.(grp)))
  in
  let failures =
    List.concat_map
      (fun (at, links) -> List.map (fun e -> { at; event = Link_down e }) links)
      cuts
  in
  let heals =
    match heal_after with
    | None -> []
    | Some h ->
      List.concat_map
        (fun (at, links) ->
          List.map (fun e -> { at = at +. h; event = Link_up e }) links)
        cuts
  in
  List.stable_sort (fun a b -> compare a.at b.at) (failures @ heals)
