(** Fig. 5: [Appro_Multi] vs [Alg_One_Server] on GT-ITM-style random
    networks of 50–250 switches — operational cost (a–c) and running
    time (d–f), one subfigure per destination ratio
    [D_max/|V| ∈ {0.05, 0.1, 0.2}], K = 3, uncapacitated.

    Paper shape: Appro_Multi's cost ≈ 70–85 % of Alg_One_Server's, gap
    widening with network size; Appro_Multi slightly slower. *)

val point :
  requests:int -> ratio:float -> rng:Topology.Rng.t -> Sdn.Network.t ->
  (string * float) list
(** One offline data point over a built network, shared with {!Fig6}:
    [requests] requests with [D_max/|V| = ratio], drawn from [rng] (the
    rng the network was built from), each solved by Appro_Multi (K = 3)
    and Alg_One_Server. Metrics: ["cost_appro"], ["cost_one"] (mean
    costs of the solved requests) and ["ms_appro"], ["ms_one"] (mean
    solve-span times). *)

val spec : Spec.t
(** The registered experiment. Timing columns read the
    ["appro_multi.solve"] / ["one_server.solve"] span histograms. By
    default 30 requests are averaged per data point (the paper averages
    1 000 — raise [--requests] to match) over sizes
    [[50; 100; 150; 200; 250]]. *)
