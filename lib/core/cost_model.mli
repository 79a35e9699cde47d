(** Resource cost models (§V-A of the paper).

    The {e linear} model charges usage proportionally to the amount
    consumed, regardless of load. The {e exponential} model of Eq. (1)
    and (2) charges

    {v c_v(k) = C_v·(α^{1 − C_v(k)/C_v} − 1)
   c_e(k) = B_e·(β^{1 − B_e(k)/B_e} − 1) v}

    so that nearly-exhausted resources become expensive, steering online
    admissions toward under-utilised servers and links. The normalised
    weights [w = α^{util} − 1] (cost divided by capacity) drive the
    admission thresholds [σ_v = σ_e = |V| − 1], with [α = β = 2|V|]. *)

val normalized_weight : capacity:float -> residual:float -> base:float -> float
(** The exponential cost of a resource at its current load divided by
    its capacity: [base^{utilisation} − 1], 0 when idle, [base − 1] when
    exhausted. Raises [Invalid_argument] unless [base > 1] and
    [0 ≤ residual ≤ capacity]. *)

val default_base : Sdn.Network.t -> float
(** [α = β = 2|V|] (Theorem 2). *)

val default_sigma : Sdn.Network.t -> float
(** [σ_v = σ_e = |V| − 1]. *)

val link_weight : Sdn.Network.t -> base:float -> int -> float
(** Normalised exponential weight of a link at its current residual. *)

val server_weight : Sdn.Network.t -> base:float -> int -> float

val linear_link_weight : Sdn.Network.t -> int -> float
(** Load-oblivious weight (the per-Mbps unit cost [c_e]) used by the
    linear-cost ablation and by the offline operational-cost objective. *)
