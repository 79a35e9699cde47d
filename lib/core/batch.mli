(** Offline batch planning — an extension of the paper's single-request
    setting: when a whole batch of NFV-enabled multicast requests is
    known in advance, the admission order interacts with capacities.
    [plan] admits a batch through {!Appro_multi.admit} under a chosen
    ordering policy; the classic observation (and our measured result)
    is that smallest-first admits more requests than arrival order,
    while largest-first packs fewer. *)

type order =
  | Arrival          (** the given sequence order *)
  | Smallest_first   (** ascending bandwidth × destination count *)
  | Largest_first    (** descending footprint — an adversarial baseline *)
  | Cheapest_first   (** ascending uncapacitated Appro_Multi cost — needs
                         one extra solve per request *)

val order_to_string : order -> string

val footprint : Sdn.Request.t -> float
(** [bandwidth × terminal count] — the ordering key of
    [Smallest_first]/[Largest_first], and {!Restore}'s knapsack
    weight. *)

type result = {
  order : order;
  admitted : int;
  rejected : int;
  total_cost : float;          (** Σ linear cost of admitted trees *)
  mean_link_utilization : float;
  trees : (int * Pseudo_tree.t) list;  (** request id → admitted tree *)
}

val reorder :
  ?k:int -> window:Sp_window.t -> Sdn.Network.t -> Sdn.Request.t list ->
  order -> Sdn.Request.t list
(** Apply an ordering policy without admitting anything: the exact
    reordering {!plan} uses. [Cheapest_first] prices every request with
    one uncapacitated {!Appro_multi.solve} against the network's
    {e current} residuals, through [window] (a window over [net], so
    pricing shares cached engines with a surrounding run); the other policies
    read only the requests. All sorts are stable, so equal keys keep
    their sequence order. Also the ordering stage of the dynamic
    simulator's heal-triggered restoration pass
    ({!Dynamic.run}~[faults]). *)

val plan :
  ?k:int -> Sdn.Network.t -> Sdn.Request.t list -> order -> result
(** Resets the network, reorders the batch, and admits greedily with
    [Appro_Multi_Cap]. The reset happens {e before} ordering, so
    [Cheapest_first] prices against the idle network. The whole plan —
    pricing and admission — shares one {!Sp_window} of cached
    shortest-path trees. *)
