(** The SDN substrate: a topology whose switches may carry servers
    ([V_S]), with bandwidth capacities on links, computing capacities on
    servers, unit usage costs, and mutable residual state (§III-A).

    Residual state supports atomic multi-resource allocation with
    rollback — the primitive online admission needs. All amounts are
    Mbps (links) and MHz (servers). *)

type t
(** A capacitated network with mutable residual state. *)

(** Parameter ranges used when attaching resources to a topology. The
    defaults follow §VI-A of the paper: link capacity 1 000–10 000 Mbps,
    server capacity 4 000–12 000 MHz; unit costs are drawn once per
    resource (see DESIGN.md §4). *)
type profile = {
  link_capacity : float * float;
  server_capacity : float * float;
  link_unit_cost : float * float;
  server_unit_cost : float * float;
  link_delay : float * float;  (** propagation delay per link, ms *)
}

val default_profile : profile
(** The §VI-A ranges quoted on {!type-profile}. *)

val uniform_profile : link_capacity:float -> server_capacity:float -> profile
(** Degenerate ranges, for deterministic tests. Unit costs are 1. *)

val make :
  ?profile:profile ->
  rng:Topology.Rng.t ->
  servers:int list ->
  Topology.Topo.t ->
  t
(** Attach resources to a topology. Raises [Invalid_argument] when the
    server list is empty, out of range, or contains duplicates. *)

val make_random_servers :
  ?profile:profile ->
  ?fraction:float ->
  rng:Topology.Rng.t ->
  Topology.Topo.t ->
  t
(** Place [fraction] (default 0.1, as in the paper) of the switches as
    servers, uniformly at random (at least one). *)

val make_explicit :
  ?link_residuals:float array ->
  ?server_residuals:(int * float) list ->
  ?link_delays:float array ->
  topology:Topology.Topo.t ->
  servers:(int * float * float) list ->
  link_capacities:float array ->
  link_unit_costs:float array ->
  unit ->
  t
(** Fully explicit construction (no randomness): [servers] lists
    [(node, computing capacity, unit cost)]; link arrays are indexed by
    edge id. Residuals default to the capacities. Used by
    {!Snapshot} when reloading a dumped scenario. Raises
    [Invalid_argument] on size mismatches or residuals outside
    [0, capacity]. *)

(** {1 Structure} *)

val topology : t -> Topology.Topo.t
(** The underlying named topology this network decorates. *)

val graph : t -> Mcgraph.Graph.t
(** The topology's graph; edge ids index every link array below. *)

val n : t -> int
(** Number of switches. *)

val m : t -> int
(** Number of links. *)

val servers : t -> int list
(** The server-attached switches [V_S], sorted increasing, without
    duplicates. Algorithms iterate this list in order, so candidate
    enumeration is deterministic. *)

val is_server : t -> int -> bool
(** Whether a node carries a server ([false] for out-of-range ids). *)

val server_count : t -> int
(** [List.length (servers t)]. *)

(** {1 Capacities, residuals and unit costs}

    All per-link accessors raise [Invalid_argument] on an out-of-range
    edge id; all per-server accessors raise [Invalid_argument] when the
    node is not in {!servers}. *)

val link_capacity : t -> int -> float
(** Total bandwidth of a link, Mbps. *)

val link_residual : t -> int -> float
(** Currently unallocated bandwidth of a link, Mbps. *)

val server_capacity : t -> int -> float
(** Total computing capacity of a server, MHz. *)

val server_residual : t -> int -> float
(** Currently unallocated computing capacity of a server, MHz. *)

val link_unit_cost : t -> int -> float
(** Cost of sending one Mbps across a link (the paper's [c_e]). *)

val server_unit_cost : t -> int -> float
(** Cost of one MHz of processing at a server (the paper's [c_v]). *)

val link_delay : t -> int -> float
(** Propagation delay of a link, in milliseconds. *)

val chain_cost : t -> int -> Vnf.chain -> float
(** [c_v(SC_k)]: unit cost at server [v] × consolidated chain demand. *)

val link_admits : t -> int -> float -> bool
(** Whether a link's residual bandwidth covers an amount (with a small
    tolerance for float drift). Raises [Invalid_argument
    "Network.link_residual: bad edge"] on a bad edge id, as
    {!link_residual} does. *)

val server_admits : t -> int -> float -> bool
(** Whether a server's residual computing capacity covers an amount
    (same tolerance). Raises [Invalid_argument
    "Network.server_residual: not a server"] when the node is not a
    server, as {!server_residual} does. *)

(** {1 Atomic allocation} *)

type allocation = {
  links : (int * float) list;     (** (edge id, Mbps); repeats accumulate *)
  nodes : (int * float) list;     (** (server node, MHz); repeats accumulate *)
}
(** A multi-resource demand. Repeated ids are summed before feasibility
    is checked, so a pseudo-multicast tree that traverses a link twice
    is charged twice. *)

val allocate : t -> allocation -> (unit, string) result
(** Atomically commit, or change nothing and explain the failure.
    Success bumps {!weight_epoch} and counts under the [Nfv_obs] counter
    [network.allocations]; failure counts under
    [network.alloc_rejections] and leaves the epoch unchanged. *)

val release : t -> allocation -> unit
(** Return previously allocated resources; bumps {!weight_epoch}.
    Raises [Invalid_argument] if a release would exceed a capacity
    (double free) by more than an absolute [1e-6]; a residual the slack
    lets past its capacity is clamped back to it, and each clamped link
    or server counts once under [network.release_clamps]. *)

val reset : t -> unit
(** Restore all residuals to full capacity; bumps {!weight_epoch}. *)

val weight_epoch : t -> int
(** Version counter of the residual state: bumped by every successful
    {!allocate}, every {!release} and every {!reset} (telemetry:
    [network.epoch_bumps]). Weight functions that read residuals
    (capacity pruning, the online algorithms' exponential prices) are
    pure between two equal readings of this counter, which is exactly
    the invariant [Mcgraph.Sp_engine] needs to cache shortest-path trees
    across queries and drop them when load changes. *)

(** {1 Metrics} *)

val mean_link_utilization : t -> float
(** Mean over all links of a link's utilisation, the allocated fraction
    of its bandwidth in [0, 1] ([0.] on edgeless networks). *)

val max_link_utilization : t -> float
(** Maximum link utilisation over all links. *)

val jain_fairness : t -> float
(** Jain index of link utilisations; 1 = perfectly balanced. Returns 1
    when the network is idle. *)

val pp : Format.formatter -> t -> unit
(** One-line summary ["network(<name>: n=…, m=…, servers=…)"]. *)
