(** End-to-end latency of pseudo-multicast trees, and delay-bounded
    admission (the extension direction of Kuo et al., INFOCOM'16, which
    the paper cites for delay-constrained NFV routing).

    A destination's latency is the propagation delay along its witness
    route (source → server → destination) plus the service chain's
    processing delay at the server. *)

val destination_delay_ms : Sdn.Network.t -> Pseudo_tree.t -> int -> float
(** Raises [Invalid_argument] when the destination has no witness. *)

val worst_delay_ms : Sdn.Network.t -> Pseudo_tree.t -> float
(** Maximum over all destinations. *)

val meets_deadline : Sdn.Network.t -> Pseudo_tree.t -> bool
(** [true] when the request carries no deadline or every destination's
    latency is within it. *)

val admit :
  Sdn.Network.t -> Admission.algorithm -> Sdn.Request.t ->
  (Pseudo_tree.t, string) result
(** Delay-bounded admission: run the online algorithm; if the admitted
    tree violates the request's deadline, roll the allocation back and
    reject. (The underlying algorithms are delay-oblivious — this is the
    standard check-and-reject wrapper, and the measured cost of ignoring
    latency during routing.) *)
