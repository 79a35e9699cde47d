(** Per-switch forwarding-table budgets.

    SDN switches hold flow rules in limited TCAM; Huang et al.
    (INFOCOM'16, cited in the paper's related work) treat the
    forwarding-table size as a first-class node capacity. This layer
    compiles every admitted pseudo-multicast tree to rules
    ({!Flow_rules}), charges each switch's table, and rejects (rolling
    back bandwidth and computing) when a switch would overflow —
    without touching the underlying algorithms. *)

type t

val create : Sdn.Network.t -> capacity:int -> t
(** A fresh budget tracker giving every switch the same [capacity]
    (rules). Raises [Invalid_argument] when [capacity < 0]. *)

val capacity : t -> int
val used : t -> int -> int
(** Rules currently installed at a switch. *)

val total_used : t -> int

val install : t -> Flow_rules.t -> (unit, string) result
(** Atomically charge every switch the rule set touches, or charge
    nothing and name the first switch without room. *)

val uninstall : t -> Flow_rules.t -> unit
(** Return the rules (e.g. when the session departs). Raises
    [Invalid_argument] on over-release. *)

val admit :
  t ->
  Sdn.Network.t ->
  Admission.algorithm ->
  Sdn.Request.t ->
  (Pseudo_tree.t * Flow_rules.t, string) result
(** Run the online algorithm; compile the admitted tree to rules; if
    some switch's table cannot hold them, roll back the bandwidth and
    computing allocation and reject. *)
