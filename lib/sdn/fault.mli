(** Deterministic failure injection against a live {!Network}.

    Admitted multicast trees live in an SDN whose links and NFV servers
    fail; this module is the substrate's failure model. A failure is an
    ordinary {!event} value applied to a {!t} controller wrapping one
    network. Injection is built {e entirely} on the network's own atomic
    allocation primitives: taking a resource down {e confiscates} its
    remaining residual through {!Network.allocate} (so every weight
    function, feasibility check and shortest-path cache in the system
    sees the failure through the normal
    {!Network.weight_epoch} machinery — no algorithm needs a special
    "is it down?" hook), and healing releases exactly the confiscated
    amount back.

    {2 Resource-exactness contract}

    Every injected failure releases {e exactly} what the affected trees
    held: {!inject} first releases each victim's full
    {!Network.allocation} (the multiset the admission algorithm
    reserved), then confiscates the failed resource's remaining
    residual. Consequently, at every instant,

    {v capacity(r) = residual(r) + confiscated(r) + Σ live allocations on r v}

    holds for every link and server — the invariant the repair property
    tests pin. Dropped sessions therefore leak nothing, and healing a
    resource restores precisely the capacity the fault removed.

    {2 Determinism contract}

    Nothing in this module reads a clock or an ambient RNG. Timelines
    are plain values; {!random_timeline} draws every choice from the
    supplied [Topology.Rng.t], so a (seed, network, slots) triple
    always produces the same timeline, and {!inject} selects degradation
    victims in increasing session-id order. Replaying the same events
    against the same network and live set is reproducible bit for bit,
    which is what lets the churn experiment run under the parallel
    harness with byte-identical outputs across [--jobs] settings. *)

type event =
  | Link_down of int  (** take a link out: confiscate its whole residual *)
  | Link_up of int  (** heal a link: release everything confiscated from it *)
  | Server_down of int  (** take an NFV server out (node must be a server) *)
  | Server_up of int  (** heal a server *)
  | Degrade_link of int * float
      (** [Degrade_link (e, f)] with [0 ≤ f ≤ 1]: ensure at least
          [f · capacity] of link [e] is confiscated, evicting live
          sessions (smallest id first) only as far as needed *)
  | Degrade_server of int * float  (** same, for a server's computing capacity *)

type stamped = {
  at : float;  (** fire at this simulation time *)
  event : event;
}
(** One event on the simulation clock — the one form every driver
    uses: the failure-aware dynamic simulator
    ([Nfv_multicast.Dynamic]) merges stamped events into its
    arrival/departure queue and applies each through {!inject}. *)

type timeline = stamped list
(** In firing order: ascending [at], ties in construction order. *)

type t
(** A fault controller over one network: which links/servers are
    currently down and how much capacity each fault confiscated. *)

val create : Network.t -> t
(** A controller with no active faults. The network may already carry
    allocations; they are untouched. *)

val link_is_down : t -> int -> bool
(** Whether a link is fully down ([Link_down] without a matching
    [Link_up]); degraded links are {e not} down. [false] for
    out-of-range ids. *)

val server_is_down : t -> int -> bool
(** Same for servers ([false] for non-servers). *)

val confiscated_link : t -> int -> float
(** Mbps currently confiscated from a link (down or degraded); part of
    the resource-exactness invariant above. Raises [Invalid_argument]
    on a bad edge id. *)

val confiscated_server : t -> int -> float
(** MHz currently confiscated from a server. Raises [Invalid_argument]
    when the node is not a server. *)

val inject : t -> live:(int * Network.allocation) list -> event -> int list
(** [inject t ~live event] applies the event and returns the ids of the
    evicted victims, in increasing id order. [live] maps session ids
    (which must be distinct) to the allocations they hold. It need only
    contain every live session holding the struck resource (a caller
    can pass just those, from an index); the other entries are ignored,
    as is [live] on an [Up] event. Each victim's
    allocation is released {e in full} through {!Network.release} before
    any capacity is confiscated, so the exactness invariant holds at
    every step. A session is a potential victim when it holds a positive
    amount on the failed link or server: [Down] events evict every such
    session, [Degrade] events evict only as many of them as the
    confiscation needs, and [Up] events never evict. Down/degrade events on an already-down resource are
    no-ops with no victims; up events on a healthy resource likewise.
    Raises [Invalid_argument] on a bad link id, a non-server node, or a
    degradation fraction outside [0, 1]. Telemetry: one
    [fault.injected.<kind>] counter per event kind, counting the events
    that passed those checks (a rejected event counts nothing), victims
    under [fault.victims]. *)

val heal_all : t -> unit
(** Release every confiscation and clear all down flags — the network
    regains exactly the capacity the faults removed. *)

val random_timeline :
  heal_after:int ->
  rng:Topology.Rng.t ->
  slots:int ->
  events:int ->
  Network.t ->
  timeline
(** A seeded timeline of [events] failures whose firing times are whole
    numbers drawn uniformly from [{0, …, slots - 1}]: a mix of
    link-down (35 %), server-down (20 %), link-degradation (25 %) and
    server-degradation (20 %) events over uniformly drawn targets, each
    degradation confiscating half the target's capacity. Every full
    outage ([Link_down]/[Server_down]) heals exactly [heal_after] time
    units later (possibly at or past [slots]); degradations are
    permanent.

    The whole-number clock is that of a driver stamping its [i]-th
    arrival at time [i]: a failure at slot [i] strikes once arrival [i]
    was decided (the [churn] family). A Poisson-clock driver can use it
    as is, with [slots] the rounded horizon. All randomness comes from
    [rng]; the result is sorted by [at] with construction order
    (failures before heals) breaking ties. Raises [Invalid_argument]
    when [slots ≤ 0], [events < 0] or [heal_after ≤ 0]. *)

(** {2 Shared-risk link groups (SRLG)}

    Independent uniform failures miss the regime where repair is
    weakest: several links cut {e at once} because they share a risk —
    a conduit, a city, a sea cable. A partition of the links into risk
    groups turns one drawn failure into a simultaneous multi-edge
    cut. *)

val srlg_partition :
  groups:int -> rng:Topology.Rng.t -> Network.t -> int list array
(** Partition the network's links into at most [groups]
    non-empty shared-risk groups, each listing edge ids in increasing
    order. On a topology with embedded coordinates (e.g. GÉANT), [k]
    seed links are drawn without replacement and every link joins the
    seed whose midpoint is nearest (squared Euclidean distance, ties
    to the lowest group index) — geographically close links share a
    group. Without coordinates (e.g. Rocketfuel), the links are
    shuffled and dealt round-robin: a seeded abstract shared-risk
    partition. Deterministic given [rng]; returns [[||]] on an
    edgeless network. Raises [Invalid_argument] when [groups ≤ 0]. *)

val srlg_timeline :
  heal_after:float ->
  rng:Topology.Rng.t ->
  horizon:float ->
  events:int ->
  int list array ->
  timeline
(** [srlg_timeline ~heal_after ~rng ~horizon ~events groups] draws [events]
    correlated cuts: each picks a firing time uniform in [0, horizon)
    and a group uniform in [groups], and takes {e every} link of that
    group down at that instant ([Link_down] per member, in group
    order), and heals them together [heal_after] later. A member
    already down when a cut fires is a no-op under {!inject}, and an
    early heal of an overlapping cut revives it — the model trades that
    edge case for exact confiscation accounting.
    With singleton groups ([[|[0]; [1]; …|]]) this is exactly the
    matched independent-failure baseline: the same draw sequence, one
    link per cut. Sorted by [at], construction order breaking ties.
    Raises [Invalid_argument] when [horizon ≤ 0], [events < 0],
    [heal_after ≤ 0] or [groups] is empty. *)
