(** Fig. 5: [Appro_Multi] vs [Alg_One_Server] on GT-ITM-style random
    networks of 50–250 switches — operational cost (a–c) and running
    time (d–f), one subfigure per destination ratio
    [D_max/|V| ∈ {0.05, 0.1, 0.2}], K = 3, uncapacitated.

    Paper shape: Appro_Multi's cost ≈ 70–85 % of Alg_One_Server's, gap
    widening with network size; Appro_Multi slightly slower. *)

val spec : Spec.t
(** The registered experiment. Timing columns read the
    ["appro_multi.solve"] / ["one_server.solve"] span histograms. By
    default 30 requests are averaged per data point (the paper averages
    1 000 — raise [--requests] to match) over sizes
    [[50; 100; 150; 200; 250]]. *)
