(** Virtualised network functions and service chains.

    The paper evaluates five middlebox types (§VI-A): Firewall, Proxy,
    NAT, IDS and Load Balancer, with computing demands adopted from
    ClickOS-scale measurements. A service chain is an ordered sequence
    of functions that every packet of a request must traverse; as in the
    paper, a chain is consolidated into a single VM, so its demand is the
    sum of its functions' demands. *)

type kind = Firewall | Proxy | Nat | Ids | Load_balancer

val all_kinds : kind array

val kind_to_string : kind -> string

val kind_of_string : string -> kind option

val demand_mhz : kind -> float
(** Computing demand of one instance, in MHz (see DESIGN.md §4 for the
    sourcing of these constants). *)

type chain = kind list
(** A service chain, e.g. [[Nat; Firewall; Ids]] (Fig. 2 of the paper). *)

val chain_demand_mhz : chain -> float
(** [C(SC_k)]: total computing demand of the chain's consolidated VM.
    Raises [Invalid_argument] on an empty chain. *)

val chain_delay_ms : chain -> float
(** Total processing latency of a consolidated chain. Raises
    [Invalid_argument] on an empty chain. *)

val chain_to_string : chain -> string
(** ["⟨NAT, Firewall, IDS⟩"]-style rendering. *)

val random_chain : Topology.Rng.t -> chain
(** A uniformly random chain: length 1–3, distinct functions, random
    order. *)
