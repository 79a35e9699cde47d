(** Online admission simulation: feed a request sequence to an online
    algorithm over a capacitated network and collect throughput and
    load-balance statistics (the measurements behind Figs. 8–9). *)

type algorithm =
  | Online_cp             (** Algorithm 2, exponential cost model,
                              literal thresholds [σ_v = σ_e = |V| − 1] *)
  | Online_cp_no_threshold
      (** Algorithm 2 with the admission thresholds disabled (pure
          load-aware routing + capacity feasibility) — our measurements
          show the literal thresholds are conservative, see
          EXPERIMENTS.md *)
  | Online_linear         (** Algorithm 2's structure with linear costs — ablation *)
  | Sp                    (** shortest-path heuristic baseline *)

val algorithm_to_string : algorithm -> string

(** {1 The pricing context}

    Online_CP (§V) prices every decision with one cost model. A
    {!pricing} value fixes that model once per run: the algorithm and
    the {!Online_cp.pricing} it implies (weight mode, parameters, the
    optional availability view and the {!Sp_window} of cached
    shortest-path engines). The same
    value then serves every decision of the run — fresh admissions,
    {!Repair}'s tiers and {!Dynamic}'s restoration pass — so all of them
    price identically and share cached Dijkstra trees (outcomes are
    identical to per-request engines, see {!Sp_window}).

    The map from algorithm to weight model is:
    - {!Online_cp}: exponential weights, {!Online_cp.default_params};
    - {!Online_cp_no_threshold}: exponential weights, default params
      with both thresholds set to [infinity];
    - {!Online_linear}: linear unit costs;
    - {!Sp}: admission uses {!Online_sp}'s load-oblivious hop weights;
      repair's patch and migration tiers search under linear unit costs.

    [avail] (an {!Online_cp.avail}: an SRLG-exposure surcharge on link
    weights) applies to every Online_cp-family admission and to repair's
    searches; the {!Sp} baseline admits without it (its load-oblivious
    pricing is the ablation). With [alpha = 0], every decision under the
    context is {e bit-identical} to one without [avail]: the surcharge
    term is never evaluated and the engine family keys are the baseline
    keys (property-tested in [test/test_avail.ml]). *)

type pricing = private { algo : algorithm; cp : Online_cp.pricing }

val pricing :
  ?window:Sp_window.t ->
  ?avail:Online_cp.avail ->
  Sdn.Network.t ->
  algorithm ->
  pricing
(** The context for [algorithm] over a network. [window] (default: a
    fresh one) lets the caller share engines with a surrounding run.
    Raises [Invalid_argument] when [window] is not over [net] itself
    (physical equality) or when [avail] was built by
    {!Online_cp.make_avail} over a network with a different link
    count. *)

val admit : pricing -> Sdn.Request.t -> (Pseudo_tree.t, string) result
(** Decide one request and return the admitted pseudo-multicast tree (the
    network's residuals are reduced), or the rejection reason. *)

type record = {
  request_id : int;
  admitted : bool;
  server : int option;
  cost : float option;        (** linear implementation cost when admitted *)
  detail : string;            (** rejection reason when rejected *)
}

type stats = {
  algorithm : algorithm;
  total : int;
  admitted : int;
  rejected : int;
  acceptance_ratio : float;
  mean_link_utilization : float;   (** at the end of the run *)
  max_link_utilization : float;
  jain_fairness : float;
  total_cost : float;              (** Σ admitted linear costs *)
  runtime_s : float;               (** [Obs.clock] time of the whole run *)
  records : record list;           (** in arrival order *)
}

val run : Sdn.Network.t -> algorithm -> Sdn.Request.t list -> stats
(** Reset the network's residuals and process the sequence in order
    under one [pricing net algorithm] (no availability view). *)

val admit_tree :
  ?window:Sp_window.t ->
  Sdn.Network.t -> algorithm -> Sdn.Request.t -> (Pseudo_tree.t, string) result
(** [admit_tree ?window net algo r] is [admit (pricing ?window net algo) r]. *)

val admitted_after : stats -> int -> int
(** Number of admissions among the first [n] arrivals — used to draw the
    "admitted vs number of requests" curves of Fig. 9. *)
