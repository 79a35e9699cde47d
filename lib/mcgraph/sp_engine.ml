(* Lazy per-source shortest-path engine: Dijkstra trees computed on
   demand and cached by source, all entries pinned to one weight epoch.
   See sp_engine.mli.

   Storage is an O(V) option array rather than a hash table: [spt] sits
   on the hot path of the auxiliary-graph metric (hundreds of thousands
   of queries per request), and an array read keeps a cache hit as cheap
   as the eager all-pairs row access it replaces.

   Epoch handling: every lookup first compares the current epoch against
   [valid_epoch], the epoch all cached trees were built at. On a
   mismatch the whole cache is swept immediately — stale trees are O(V)
   arrays each, and before this sweep existed a request burst could pin
   one obsolete tree per source for the engine's lifetime. After the
   sweep the invariant "every [Some] entry is current" holds, so the
   per-query fast path is a single array read.

   Weights: the closure is materialised into one float array on the
   first miss (or {!weights} read) at a new epoch and dropped together
   with the trees, so every Dijkstra of an epoch reads the same flat
   vector instead of re-evaluating the closure per relaxation. *)

module Obs = Nfv_obs.Obs

type stats = {
  trees_computed : int;
  cache_hits : int;
  invalidations : int;
}

type t = {
  graph : Graph.t;
  mutable weight : int -> float;   (* swappable via [renew] *)
  epoch : unit -> int;
  mutable wvec : float array option;  (* weights at [valid_epoch], once filled *)
  cache : Paths.spt option array;   (* per-source tree, or None *)
  mutable valid_epoch : int;        (* epoch every cached tree was built at *)
  mutable computed : int;
  mutable hits : int;
  mutable stale_drops : int;
}

(* atomic: engines run concurrently in parallel figure workers *)
let total_computed = Atomic.make 0

let global_trees_computed () = Atomic.get total_computed

(* process-wide cache behaviour, aggregated over every engine *)
let c_hits = Obs.Counter.make "sp_engine.cache_hits"
let c_misses = Obs.Counter.make "sp_engine.cache_misses"
let c_evictions = Obs.Counter.make "sp_engine.evictions"

let create ?(epoch = fun () -> 0) graph ~weight =
  let n = max (Graph.n graph) 1 in
  {
    graph;
    weight;
    epoch;
    wvec = None;
    cache = Array.make n None;
    valid_epoch = epoch ();
    computed = 0;
    hits = 0;
    stale_drops = 0;
  }

let graph t = t.graph

let drop_all t =
  t.wvec <- None;
  Array.iteri
    (fun i tree ->
      if tree <> None then begin
        t.stale_drops <- t.stale_drops + 1;
        Obs.Counter.incr c_evictions;
        t.cache.(i) <- None
      end)
    t.cache

(* re-establish the invariant that cached trees match the current epoch;
   O(V) but only on epoch changes, which already force recomputation *)
let refresh t =
  let now = t.epoch () in
  if now <> t.valid_epoch then begin
    drop_all t;
    t.valid_epoch <- now
  end

(* the weight vector of [valid_epoch], filled on first use; refilled if
   the graph gained edges since (same epoch, so the same values) *)
let vector t =
  match t.wvec with
  | Some w when Array.length w = Graph.m t.graph -> w
  | _ ->
    let w = Paths.weight_vector t.graph ~weight:t.weight in
    t.wvec <- Some w;
    w

let weights t =
  refresh t;
  vector t

let spt t source =
  refresh t;
  match t.cache.(source) with
  | Some tree ->
    t.hits <- t.hits + 1;
    Obs.Counter.incr c_hits;
    tree
  | None ->
    Obs.Counter.incr c_misses;
    let tree = Paths.dijkstra_vec t.graph ~weights:(vector t) ~source in
    t.computed <- t.computed + 1;
    Atomic.incr total_computed;
    t.cache.(source) <- Some tree;
    tree

let peek t source =
  refresh t;
  t.cache.(source)

(* Re-arm a long-lived engine for a new caller-supplied weight closure.
   Sweeping first (via [refresh]) means cached trees — and the weight
   vector — survive only when the epoch is unchanged: exactly the case
   where the caller guarantees the new closure is extensionally equal to
   the old one, so the surviving trees and weights are still correct. *)
let renew t ~weight =
  refresh t;
  t.weight <- weight

let dist t u v = (spt t u).Paths.dist.(v)

let path t u v = Paths.path_edges t.graph (spt t u) v

let path_nodes t u v = Paths.path_nodes t.graph (spt t u) v

let invalidate t = drop_all t

let stats t =
  { trees_computed = t.computed; cache_hits = t.hits; invalidations = t.stale_drops }
