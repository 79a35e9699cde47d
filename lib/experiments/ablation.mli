(** Ablations for the design choices DESIGN.md calls out.

    A1 — cost model: Algorithm 2's structure run with the exponential
    weights (paper) vs load-oblivious linear weights vs SP, on a long
    arrival sequence; shows the exponential model's balancing is what
    sustains admissions (§V-A's motivation).

    A2 — number of servers per chain: [Appro_Multi] with K ∈ {1, 2, 3};
    shows the cost reduction from multi-server placement and its
    running-time price (the [2K] ratio trade-off). *)

val cost_model : ?seed:int -> ?requests:int -> ?n:int -> unit -> Exp_common.figure
(** Admissions after every 200 arrivals; default n = 100, 2 000 requests. *)

val k_sweep : ?seed:int -> ?requests:int -> ?sizes:int list -> unit -> Exp_common.figure list
(** Cost and running time vs network size for K = 1, 2, 3. *)

val placement_strategies :
  ?seed:int -> ?requests:int -> ?sizes:int list -> unit -> Exp_common.figure
(** Joint placement+routing (Appro_Multi) vs the tree-first in-line
    derivation of §III-B vs the §VI-A baseline. *)

val two_cluster : ?seed:int -> ?arm:int -> unit -> Exp_common.figure
(** The instance family where multi-server placement provably wins: a
    source between two destination clusters with a server at each; K = 2
    beats K = 1 once bandwidth exceeds the chain-cost crossover. *)

val online_k : ?seed:int -> ?requests:int -> ?n:int -> unit -> Exp_common.figure
(** Admissions of the exponential-price online variant for K ∈ {1,2,3}
    against SP — the K > 1 online setting the paper leaves open. *)

val spec : Spec.t
(** All ablations as one registered family (["ablation"]): figures
    [ablA1], [ablA2cost], [ablA2time], [ablA2cluster], [ablA3],
    [ablA4]. When [--requests] is given it overrides every
    sub-experiment's own default request count; otherwise each keeps
    its default. *)
