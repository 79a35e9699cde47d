(** Fig. 8: online algorithms [Online_CP] vs [SP] on GT-ITM-style
    networks of 50–250 switches — admitted requests (a) and running time
    (b) for a monitoring period of 300 requests.

    Paper shape: Online_CP admits clearly more than SP (the paper
    reports ≥ 2×), and admissions do not grow monotonically with network
    size because destination sets scale with |V|. Our default sequence
    length can be raised with [requests] to deepen contention. *)

val spec : Spec.t
(** The "(ms per request)" column is the mean of the per-request
    ["online_cp.admit"] / ["online_sp.admit"] span histograms over each
    algorithm's run — per-request instrumentation, not the batch
    wall-clock divided by the request count. By default each run is
    1 500 requests long, over sizes [[50; 100; 150; 200; 250]]. *)
