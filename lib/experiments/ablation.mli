(** Ablations for the design choices DESIGN.md calls out.

    A1 — cost model: Algorithm 2's structure run with the exponential
    weights (paper) vs load-oblivious linear weights vs SP, on a long
    arrival sequence (n = 100, 2 000 requests, admissions read every
    tenth of it); shows the exponential model's balancing is what
    sustains admissions (§V-A's motivation).

    A2 — number of servers per chain: [Appro_Multi] with K ∈ {1, 2, 3},
    cost and running time at |V| ∈ {50, 100, 150}; shows the cost
    reduction from multi-server placement and its running-time price
    (the [2K] ratio trade-off). Its companion is the instance family
    where multi-server placement provably wins: a source between two
    destination clusters (arms of 4 hops) with a server at each; K = 2
    beats K = 1 once bandwidth exceeds the chain-cost crossover.

    A3 — placement strategy: joint placement and routing
    ([Appro_Multi]) vs the tree-first in-line derivation of §III-B vs
    the §VI-A baseline, at |V| ∈ {50, 100, 150}.

    A4 — online K: admissions of {!Nfv_multicast.Online_multi} for
    K ∈ {1, 2, 3} against SP (n = 100, 800 requests) — the K > 1
    online setting the paper leaves open. *)

val spec : Spec.t
(** All ablations as one registered family (["ablation"]): figures
    [ablA1], [ablA2cost], [ablA2time], [ablA2cluster], [ablA3],
    [ablA4]. When [--requests] is given it overrides every
    sub-experiment's own default request count; otherwise each keeps
    its default. *)
