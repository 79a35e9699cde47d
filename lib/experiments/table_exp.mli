(** Extension experiment: per-switch forwarding-table capacity. Sweeps
    the TCAM budget and reports how many of a long request sequence each
    online algorithm can install — bandwidth and computing are generous
    here, so the rule budget is the binding resource (the node-capacity
    regime of Huang et al. [10]). *)

val spec : Spec.t
(** Registered as ["tables"]; [--requests] is the sequence length per
    TCAM budget level (default 400, on a 100-switch network). *)
