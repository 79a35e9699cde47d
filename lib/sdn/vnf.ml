type kind = Firewall | Proxy | Nat | Ids | Load_balancer

let all_kinds = [| Firewall; Proxy; Nat; Ids; Load_balancer |]

let kind_to_string = function
  | Firewall -> "Firewall"
  | Proxy -> "Proxy"
  | Nat -> "NAT"
  | Ids -> "IDS"
  | Load_balancer -> "LoadBalancer"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "firewall" -> Some Firewall
  | "proxy" -> Some Proxy
  | "nat" -> Some Nat
  | "ids" -> Some Ids
  | "loadbalancer" | "load_balancer" | "lb" -> Some Load_balancer
  | _ -> None

(* MHz per instance; ClickOS-scale lightweight VMs, sized so that a
   sequence of a few hundred requests is bandwidth-bound rather than
   compute-bound, matching the paper's admission regime (DESIGN.md §4) *)
let demand_mhz = function
  | Firewall -> 40.0
  | Proxy -> 60.0
  | Nat -> 25.0
  | Ids -> 80.0
  | Load_balancer -> 50.0

(* per-packet latency in ms; IDS deep inspection dominates *)
let processing_delay_ms = function
  | Firewall -> 0.2
  | Proxy -> 0.5
  | Nat -> 0.1
  | Ids -> 1.0
  | Load_balancer -> 0.3

type chain = kind list

let chain_delay_ms = function
  | [] -> invalid_arg "Vnf.chain_delay_ms: empty chain"
  | chain -> List.fold_left (fun acc k -> acc +. processing_delay_ms k) 0.0 chain

let chain_demand_mhz = function
  | [] -> invalid_arg "Vnf.chain_demand_mhz: empty chain"
  | chain -> List.fold_left (fun acc k -> acc +. demand_mhz k) 0.0 chain

let chain_to_string chain =
  "<" ^ String.concat ", " (List.map kind_to_string chain) ^ ">"

let random_chain rng =
  let len = 1 + Topology.Rng.int rng 3 in
  let idx =
    Topology.Rng.sample_without_replacement rng len (Array.length all_kinds)
  in
  List.map (fun i -> all_kinds.(i)) idx
