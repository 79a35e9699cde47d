(** Minimum spanning trees and forests.

    [kruskal], [kruskal_subset] and [prim_rows] run on a per-domain
    scratch rather than per-call arrays: their work is proportional to
    the edges or points they are given, not to the graph. Kruskal's
    kernel reads weights from a float buffer beside the edge ids; these
    wrappers fill it from [weight], one call per listed edge in list
    order, before sorting. In exchange
    they are not re-entrant on one domain: a [weight], [dist] or [row]
    callback must not call any of them, nor [Steiner.kmb],
    [Steiner.kmb_with_metric], [Steiner.prune] or [Steiner.dedup_edges],
    which share the scratch. Different domains may run them at once. *)

val kruskal : Graph.t -> weight:(int -> float) -> int list
(** Edge ids of a minimum spanning forest (a tree when the graph is
    connected). Edges with [infinity] weight are ignored. *)

val kruskal_subset : Graph.t -> weight:(int -> float) -> edges:int list -> int list
(** Minimum spanning forest of the subgraph formed by the given edge
    ids, in pick order (by weight; equal weights in input order; repeats
    and [infinity]-weight edges are skipped); used for the second MST
    pass of the KMB Steiner heuristic. The union-find runs over compact
    ids of the listed edges' endpoints. *)

val prim_rows :
  points:int array ->
  row:(int -> int array -> int -> float array -> unit) ->
  (int * int) list option
(** MST of the complete graph on [points] under a metric read a row at
    a time: [row src dst n out] must set [out.(i)] to the distance from
    point value [src] to point value [dst.(i)], for [i < n], querying
    the pairs in increasing [i]. Over the whole run the rows ask for
    exactly the pairs, in exactly the order, that {!prim_metric} passes
    to [dist]. [dst] and [out] are scratch buffers, valid only during
    the call. Returns node pairs [(a, b)] drawn from [points], in the
    order Prim adds them; [None] when some point is at infinite distance
    from the rest. O(|points|²) time, no allocation per distance. The
    pairs are read off the flat pair buffer KMB's expansion walks
    directly; this list is built for other callers. *)

val prim_metric : points:int array -> dist:(int -> int -> float) -> (int * int) list option
(** {!prim_rows} with the rows filled one [dist] call per pair. *)
