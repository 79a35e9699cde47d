(** Fig. 6: [Appro_Multi] vs [Alg_One_Server] in the real topologies
    GÉANT and AS1755 — operational cost (a, b) and running time (c, d)
    as [D_max/|V|] grows from 0.05 to 0.2, K = 3.

    Paper shape: Appro_Multi clearly cheaper (≈ 30 % lower cost in
    AS1755 at ratio 0.15), slightly slower. *)

val spec : Spec.t
(** Registered as ["fig6"]; figures [fig6a]/[fig6b] (cost) and
    [fig6c]/[fig6d] (running time from the solve span histograms). By
    default 100 requests are averaged per point. *)
