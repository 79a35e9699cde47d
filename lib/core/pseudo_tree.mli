(** Pseudo-multicast trees (§III-B).

    The routing structure implementing an NFV-enabled multicast request:
    traffic flows from the source through one or more servers hosting the
    service chain and on to every destination. Because a processed packet
    may backtrack (e.g. from a server up to an ancestor before fanning
    out), tree edges can be traversed more than once; we therefore store
    an explicit {e edge-use multiset}. Each destination carries a
    {e witness route} — the concrete source → server → destination walk —
    which makes the service-chain property checkable. *)

type route = {
  to_server : int list;  (** edge ids, source → serving server *)
  server : int;          (** the server whose VM processes this copy *)
  onward : int list;     (** edge ids, server → destination *)
}

type t = {
  request : Sdn.Request.t;
  servers : int list;            (** chosen servers, each hosting [SC_k] *)
  edge_uses : (int * int) list;  (** (edge id, multiplicity ≥ 1), ids distinct *)
  routes : (int * route) list;   (** one witness per destination *)
}

val make :
  request:Sdn.Request.t ->
  servers:int list ->
  edge_uses:(int * int) list ->
  routes:(int * route) list ->
  t
(** Normalises [edge_uses] (sorts by edge id and merges repeats, as
    {!edge_uses_of_list} would on the expanded multiset); a list whose
    ids are already strictly ascending is kept as it is. Raises
    [Invalid_argument] on an empty server list or a non-positive
    multiplicity. *)

val of_support :
  Mcgraph.Graph.t ->
  support:int list ->
  request:Sdn.Request.t ->
  server_of:(int -> int) ->
  t
(** [of_support g ~support ~request ~server_of] is the pseudo-tree the
    multicast tree [support] (edge ids of [g]) carries when each
    destination [d] is served by [server_of d], a node of the tree:
    every witness walks the tree's paths source → server → destination,
    and the edge uses are the [support] edges plus, per server, the
    backtrack from it up to the LCA of it and the destinations it
    serves. [support] is rooted at the request's source with
    {!Mcgraph.Tree.root}, which replaces the domain's rooting and raises
    [Invalid_argument] when [support] is not a tree. *)

val edge_uses_of_list : int list -> (int * int) list
(** Count multiplicities in a raw edge-id list (traversal multiset). *)

val cost : Sdn.Network.t -> t -> float
(** Implementation cost under the offline linear objective:
    Σ uses·b_k·c_e + Σ_{servers} c_v(SC_k). *)

val total_edge_traversals : t -> int

val allocation : t -> Sdn.Network.allocation
(** Resources the structure consumes: [uses·b_k] per link, the chain
    demand per chosen server. *)

val validate : Sdn.Network.t -> t -> (unit, string) result
(** Structural soundness: each destination has a witness whose
    [to_server] walks from the source to a chosen server and whose
    [onward] walks from that server to the destination; every witness
    edge is in the edge-use support; chosen servers are actual servers
    of the network; every edge id is valid. *)

val pp : Format.formatter -> t -> unit
