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

(* One resource kind of a controller: its down flags and confiscation
   ledger, indexed by edge id (links) or node id (servers), and that
   kind's Network accessors, partially applied to the network. *)
type kind = {
  what : string;                        (* "link" / "server" *)
  down : bool array;                    (* id -> fully out? *)
  conf : float array;                   (* amount confiscated per id *)
  valid : int -> bool;
  bad : string;                         (* the id check's message suffix *)
  capacity : int -> float;
  residual : int -> float;
  admits : int -> float -> bool;
  held : Network.allocation -> (int * float) list;
  single : int -> float -> Network.allocation;
  c_down : Obs.Counter.t;
  c_up : Obs.Counter.t;
  c_degrade : Obs.Counter.t;
}

type t = { net : Network.t; links : kind; servers : kind }

let create net =
  let m = Network.m net and n = Network.n net in
  {
    net;
    links =
      {
        what = "link";
        down = Array.make m false;
        conf = Array.make m 0.0;
        valid = (fun e -> e >= 0 && e < m);
        bad = ": bad edge";
        capacity = Network.link_capacity net;
        residual = Network.link_residual net;
        admits = Network.link_admits net;
        held = (fun a -> a.Network.links);
        single = (fun e x -> { Network.links = [ (e, x) ]; nodes = [] });
        c_down = c_link_down;
        c_up = c_link_up;
        c_degrade = c_degrade_link;
      };
    servers =
      {
        what = "server";
        down = Array.make n false;
        conf = Array.make n 0.0;
        valid = Network.is_server net;
        bad = ": not a server";
        capacity = Network.server_capacity net;
        residual = Network.server_residual net;
        admits = Network.server_admits net;
        held = (fun a -> a.Network.nodes);
        single = (fun v x -> { Network.links = []; nodes = [ (v, x) ] });
        c_down = c_server_down;
        c_up = c_server_up;
        c_degrade = c_degrade_server;
      };
  }

let is_down k i = i >= 0 && i < Array.length k.down && k.down.(i)
let link_is_down t e = is_down t.links e
let server_is_down t v = is_down t.servers v
let check k i name = if not (k.valid i) then invalid_arg (name ^ k.bad)

let check_fraction f name =
  if not (f >= 0.0 && f <= 1.0) then invalid_arg (name ^ ": fraction outside [0, 1]")

let confiscated_link t e =
  check t.links e "Fault.confiscated_link";
  t.links.conf.(e)

let confiscated_server t v =
  check t.servers v "Fault.confiscated_server";
  t.servers.conf.(v)

let holds k alloc i =
  List.exists (fun (i', amt) -> i' = i && amt > 0.0) (k.held alloc)
let by_id live = List.sort (fun (a, _) (b, _) -> compare a b) live

(* confiscate [amount] (clamped to the current residual) from one
   resource via an ordinary allocation, so the epoch bumps and every
   cached shortest-path tree is invalidated the normal way *)
let confiscate t k i amount =
  let amount = Float.min amount (k.residual i) in
  if amount > 0.0 then begin
    (match Network.allocate t.net (k.single i amount) with
    | Ok () -> ()
    | Error msg ->
      invalid_arg ("Fault: " ^ k.what ^ " confiscation failed: " ^ msg));
    k.conf.(i) <- k.conf.(i) +. amount
  end

let restore t k i =
  if k.conf.(i) > 0.0 then begin
    Network.release t.net (k.single i k.conf.(i));
    k.conf.(i) <- 0.0
  end

type action = Down | Up | Degrade of float

let inject t ~live event =
  let k, i, action =
    match event with
    | Link_down e -> (t.links, e, Down)
    | Link_up e -> (t.links, e, Up)
    | Degrade_link (e, f) -> (t.links, e, Degrade f)
    | Server_down v -> (t.servers, v, Down)
    | Server_up v -> (t.servers, v, Up)
    | Degrade_server (v, f) -> (t.servers, v, Degrade f)
  in
  check k i "Fault.inject";
  (match action with
  | Degrade frac -> check_fraction frac "Fault.inject"
  | Down | Up -> ());
  (* only a validated event counts as injected *)
  Obs.Counter.incr
    (match action with
    | Down -> k.c_down
    | Up -> k.c_up
    | Degrade _ -> k.c_degrade);
  let victims =
    match action with
    | Down ->
      if k.down.(i) then []
      else begin
        let victims = by_id (List.filter (fun (_, a) -> holds k a i) live) in
        List.iter (fun (_, alloc) -> Network.release t.net alloc) victims;
        confiscate t k i infinity;
        k.down.(i) <- true;
        List.map fst victims
      end
    | Up ->
      if k.down.(i) then begin
        restore t k i;
        k.down.(i) <- false
      end;
      []
    | Degrade frac ->
      if k.down.(i) then []
      else begin
        (* evict holders, smallest id first, only while the residual
           cannot cover the confiscation still missing *)
        let target = frac *. k.capacity i in
        let victims = ref [] in
        List.iter
          (fun (id, alloc) ->
            if (not (k.admits i (target -. k.conf.(i)))) && holds k alloc i
            then begin
              Network.release t.net alloc;
              victims := id :: !victims
            end)
          (by_id live);
        confiscate t k i (target -. k.conf.(i));
        List.rev !victims
      end
  in
  Obs.Counter.add c_victims (List.length victims);
  victims

(* links by edge id, then servers by node id *)
let heal_all t =
  List.iter
    (fun k ->
      Array.iteri (fun i _ -> restore t k i) k.conf;
      Array.fill k.down 0 (Array.length k.down) false)
    [ t.links; t.servers ]

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

let random_timeline ~heal_after ~rng ~slots ~events net =
  if slots <= 0 then invalid_arg "Fault.random_timeline: slots <= 0";
  if events < 0 then invalid_arg "Fault.random_timeline: events < 0";
  if heal_after <= 0 then invalid_arg "Fault.random_timeline: heal_after <= 0";
  let m = Network.m net in
  let servers = Array.of_list (Network.servers net) in
  let failures =
    List.init events (fun _ ->
        let at = float_of_int (Rng.int rng slots) in
        let event = draw_failure rng ~m ~servers in
        { at; event })
  in
  let heals =
    List.filter_map
      (fun f ->
        Option.map
          (fun ev -> { at = f.at +. float_of_int heal_after; event = ev })
          (heal_of f.event))
      failures
  in
  List.stable_sort (fun a b -> compare a.at b.at) (failures @ heals)

(* ---- shared-risk link groups ------------------------------------------ *)

let srlg_partition ~groups ~rng net =
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

let srlg_timeline ~heal_after ~rng ~horizon ~events groups =
  if not (horizon > 0.0) then invalid_arg "Fault.srlg_timeline: horizon <= 0";
  if events < 0 then invalid_arg "Fault.srlg_timeline: events < 0";
  if not (heal_after > 0.0) then
    invalid_arg "Fault.srlg_timeline: heal_after <= 0";
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
    List.concat_map
      (fun (at, links) ->
        List.map (fun e -> { at = at +. heal_after; event = Link_up e }) links)
      cuts
  in
  List.stable_sort (fun a b -> compare a.at b.at) (failures @ heals)
