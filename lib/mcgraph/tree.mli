(** Rooted trees over a subset of a graph's nodes.

    Built from an acyclic, connected set of graph edge ids by orienting
    them away from a chosen root. Provides the lowest-common-ancestor and
    tree-path queries that pseudo-multicast-tree construction needs
    (Algorithm 2, step 10 of the paper).

    {b Cost.} A tree over [k] edges of a graph with [n] nodes and [m]
    edges takes O(n) words once (a node-to-slot map); everything else it
    keeps is sized to the tree, O(k) words. {!of_edges} runs its search
    in the domain's {!Scratch} arrays, so it replaces that domain's
    scratch rooting. {!lca}, {!path_up} and
    {!path_between} allocate nothing beyond the lists they return;
    {!nodes} builds its list on each call. *)

type t

val of_edges : Graph.t -> root:int -> int list -> t
(** [of_edges g ~root edges] orients [edges] away from [root]. Raises
    [Invalid_argument] if [root] is not a node of [g], if an edge id lies
    outside [\[0, Graph.m g)] (["Tree.of_edges: edge id out of range"]),
    or if the edge set contains a cycle, a repeated edge, or an edge not
    connected to [root]. *)

val root : t -> int

val mem : t -> int -> bool
(** Whether a node belongs to the tree. *)

val nodes : t -> int list
(** Tree nodes in BFS order from the root. *)

val size : t -> int
(** Number of tree nodes. *)

val edges : t -> int list
(** The tree's edge ids. *)

val parent : t -> int -> int
(** Parent node; [-1] for the root. Raises [Invalid_argument] for
    non-tree nodes. *)

val parent_edge : t -> int -> int
(** Edge to the parent; [-1] for the root. *)

val depth : t -> int -> int

val children : t -> int -> int list

val leaves : t -> int list
(** Nodes with no children, in BFS order (the root too when the tree
    has no edges). *)

val lca : t -> int -> int -> int
(** Lowest common ancestor of two tree nodes. *)

val lca_many : t -> int list -> int
(** Aggregate LCA, [lca (lca (… ) ) ]; raises [Invalid_argument] on an
    empty list. *)

val path_up : t -> int -> ancestor:int -> int list
(** Edge ids from a node up to one of its ancestors, in travel order.
    Raises [Invalid_argument] if [ancestor] is not an ancestor. *)

val path_between : t -> int -> int -> int list
(** Edge ids of the unique tree path between two nodes (via their LCA),
    in travel order from the first node. *)

(** {1 Scratch rooting}

    A tree read once, for its LCA and one climb, need not be built as a
    {!t}. [Scratch] roots an edge list in the calling domain's own
    arrays, sized to the largest graph it has rooted on and never
    cleared, so a rooting allocates nothing. Each domain holds one
    rooting: it stays readable until that domain's next {!Scratch.root}
    or {!of_edges}.
    The queries answer as {!parent}, {!parent_edge} and {!lca_many} of
    [of_edges g ~root edges] do, since both are unique in a tree. *)
module Scratch : sig
  val root : Graph.t -> root:int -> int list -> unit
  (** [root g ~root edges] replaces the domain's rooting by [edges]
      oriented away from [root]. Raises [Invalid_argument] where
      [of_edges] does, and then leaves no rooting (every query raises). *)

  val parent : int -> int
  (** Parent node; [-1] for the root. Raises [Invalid_argument] off the
      rooting. *)

  val parent_edge : int -> int
  (** Edge to the parent; [-1] for the root. Raises [Invalid_argument]
      off the rooting. *)

  val lca : int -> int list -> int
  (** [lca v others] is the lowest common ancestor of [v] and every node
      of [others] ([lca_many t (v :: others)]). Raises
      [Invalid_argument] when one of them is off the rooting, [v] alone
      included. *)
end
