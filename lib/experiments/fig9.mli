(** Fig. 9: [Online_CP] vs [SP] in GÉANT (a) and AS1755 (b) — admitted
    requests as the sequence length grows from 50 to 300.

    Paper shape: both algorithms admit nearly everything up to ≈ 100
    requests; beyond that Online_CP pulls ahead and the gap widens.
    Because an online algorithm's first [n] decisions do not depend on
    later arrivals, a single 300-request run yields every prefix
    point. *)

val spec : Spec.t
(** Registered as ["fig9"]; figures [fig9a] (GÉANT) and [fig9b]
    (AS1755), admitted requests per prefix length. By default the
    sequences are 1 500 requests long ([--requests] sets the horizon;
    every prefix point comes from the same run). *)
