(** Compilation of multicast routing structures into SDN forwarding
    state, and an independent data-plane check.

    The SDN controller realises a pseudo-multicast tree as per-switch
    rules. Because the same physical link can carry the request's
    traffic twice (unprocessed towards a server, processed away from
    it), rules match on a {e processed} tag — the standard
    NFV-steering trick (cf. SIMPLE [19]): the VM sets the tag, switches
    forward tagged and untagged packets independently.

    [simulate] floods a packet through the compiled rules and reports
    which nodes received a processed copy — an end-to-end check of the
    control state that is completely independent of how the tree was
    computed (used by the test suite as a second validator). *)

type action =
  | Forward of int          (** output on edge id *)
  | Deliver                 (** hand the (processed) packet to this node *)
  | To_vm                   (** divert into the local service-chain VM;
                                the VM re-injects the packet tagged *)

type rule = {
  switch : int;
  tagged : bool;            (** matches processed (tagged) packets? *)
  in_edge : int option;     (** match on ingress edge; [None] = the
                                packet originates at this switch *)
  actions : action list;
}

type t = {
  request_id : int;
  rules : rule list;
}

val of_pseudo_tree : Sdn.Network.t -> Pseudo_tree.t -> t
(** Compile witness routes into forwarding rules. Rules for the same
    (switch, tag, ingress) are merged; duplicate actions are removed. *)

val switches_with_state : t -> int list
(** Switches holding at least one rule, ascending. *)

val table_size : t -> int -> int
(** Number of rules installed at a switch — the forwarding-table
    footprint that node-capacity-aware SDN work (e.g. Huang et al.,
    INFOCOM'16) budgets. *)

val total_rules : t -> int

type delivery = {
  delivered : int list;         (** nodes that received a processed copy *)
  processed_at : int list;      (** nodes whose VM processed the packet *)
  link_loads : (int * int) list;(** edge id → number of traversals *)
}

val simulate : Sdn.Network.t -> t -> source:int -> delivery
(** Inject an untagged packet at [source] and follow the rules. Raises
    [Invalid_argument] on a forwarding loop (more than [4·|E|] packet
    hops) — compiled state from a valid pseudo-tree never loops. *)

val verify : Sdn.Network.t -> Pseudo_tree.t -> (unit, string) result
(** Compile + simulate + check: every destination receives a processed
    copy, processing only happens at the tree's chosen servers, and no
    link carries more traversals than the tree's edge-use multiset
    declares. *)

val pp : Format.formatter -> t -> unit
