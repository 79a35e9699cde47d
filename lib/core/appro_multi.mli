(** Algorithm 1, [Appro_Multi]: the 2K-approximation for the NFV-enabled
    multicasting problem (§IV), and its capacity-constrained variant
    [Appro_Multi_Cap] (§IV-C).

    For every combination of at most [K] candidate servers the algorithm
    builds the auxiliary graph [G_k^i] (see {!Aux_graph}), finds a KMB
    Steiner tree spanning the virtual source and all destinations, and
    keeps the cheapest tree over all combinations, mapped back to a
    pseudo-multicast tree of the SDN. Combinations holding a server
    that provably changes nothing ({!Aux_graph.redundant}) are not
    priced; the result is that of pricing them all (DESIGN.md §17). *)

type result = {
  tree : Pseudo_tree.t;
  subset : int list;     (** the winning server combination *)
  aux_cost : float;      (** tree cost in the auxiliary graph — the
                             objective Algorithm 1 minimises, with its
                             zero-cost source–server edges *)
  cost : float;          (** honest linear implementation cost of the
                             pseudo-multicast tree (every traversal and
                             every placement charged); ≥ [aux_cost] *)
  combinations : int;    (** size of the explored search space: the
                             number of non-empty server subsets of size
                             ≤ [K] drawn from the reachable candidate
                             servers, whether or not they yielded a
                             feasible tree. [solve_with] and [admit]
                             report the same quantity. *)
}

val solve :
  ?k:int -> ?window:Sp_window.t -> Sdn.Network.t -> Sdn.Request.t ->
  (result, string) Stdlib.result
(** Uncapacitated [Appro_Multi] with at most [k] (default 3, as in the
    paper's evaluation) servers per request. Base edges cost [b_k·c_e];
    the engine that serves them is built here, beside the key that
    shares it: [?window] shares it across requests of equal bandwidth
    (the bandwidth's bits key the engine family), without one it is
    private to the call — results are identical either way. Raises
    [Invalid_argument] when [window] is not over the network itself
    (physical equality). *)

val solve_capacitated :
  ?k:int -> ?window:Sp_window.t -> Sdn.Network.t -> Sdn.Request.t ->
  (result, string) Stdlib.result
(** [Appro_Multi_Cap]: links without residual bandwidth [b_k] and servers
    without residual computing [C(SC_k)] are pruned before running
    Algorithm 1. Does not allocate. [?window] as in {!solve}, with the
    capacity pruning folded into the engine key. *)

val admit :
  ?k:int -> ?window:Sp_window.t -> Sdn.Network.t -> Sdn.Request.t ->
  (result, string) Stdlib.result
(** [solve_capacitated] followed by an atomic allocation of the winning
    tree's resources. Candidate combinations are tried in cost order
    until one fits (a tree may need [2·b_k] on an edge it traverses
    twice, which pruning alone does not guarantee). *)

val candidates :
  ?k:int ->
  ?placement_cost:(int -> float) ->
  engine:Mcgraph.Sp_engine.t ->
  usable_servers:int list ->
  Sdn.Network.t ->
  Sdn.Request.t ->
  (float * int list * Aux_graph.t * int list) list
(** The feasible [(aux_cost, subset, aux, tree_edges)] candidates in
    increasing (cost, subset size, subset) order — exposed for the
    online multi-server variant and tests. A combination that
    {!Aux_graph.redundant} proves to repeat, bit for bit, the cost and
    tree of one of its proper subsets is omitted: that subset is listed
    before it, so the first candidate, and the first one that allocates,
    are those of the full enumeration. [engine] prices the base edges
    (see {!Aux_graph.build}; [infinity] prunes a link) and
    [placement_cost] the servers (default [c_v(SC_k)]): {!admit} passes
    its own [b_k·c_e] engine pruned by residual bandwidth, and
    {!Online_multi} the engine of an {!Online_cp.pricing}. *)
