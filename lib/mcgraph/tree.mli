(** Rooted trees over a subset of a graph's nodes.

    {!root} orients an acyclic, connected set of graph edge ids away from
    a chosen root. The queries answer the lowest-common-ancestor and
    tree-path questions that pseudo-multicast-tree construction needs
    (Algorithm 2, step 10 of the paper); a tree path and an LCA are
    unique, so they do not depend on how the rooting was found.

    {b One rooting per domain.} The rooting lives in the calling domain's
    own node- and edge-indexed arrays, sized to the largest graph it has
    rooted on and never cleared, so {!root} allocates nothing once they
    have grown. A rooting stays readable until the domain's next
    {!root}; a caller that needs two trees at once reads the first before
    rooting the second. Library code that checks a tree or builds a
    pseudo-tree from one roots here too, so read a rooting before
    calling into it. {!lca} allocates nothing; {!nodes},
    {!path_up} and {!path_between} allocate only the lists they
    return. *)

val root : Graph.t -> root:int -> int list -> unit
(** [root g ~root edges] replaces the domain's rooting by [edges]
    oriented away from [root], walking {!Graph.neighbors}. Raises
    [Invalid_argument] (["Tree.root: …"]) if [root] is not a node of
    [g], if an edge id lies outside [\[0, Graph.m g)], or if the edge set
    contains a repeated edge, a cycle, or an edge not connected to
    [root]; it then leaves no rooting (every query raises, {!nodes} is
    empty). *)

val mem : int -> bool
(** Whether a node belongs to the rooting. *)

val nodes : unit -> int list
(** The rooting's nodes in BFS order from the root. *)

val parent : int -> int
(** Parent node; [-1] for the root. Raises [Invalid_argument]
    (["Tree.parent: node not in tree"]) off the rooting. *)

val parent_edge : int -> int
(** Edge to the parent; [-1] for the root. Raises [Invalid_argument]
    off the rooting. *)

val lca : int -> int list -> int
(** [lca v others] is the lowest common ancestor of [v] and every node
    of [others]. Raises [Invalid_argument] when one of them is off the
    rooting, [v] alone included. *)

val path_up : int -> ancestor:int -> int list
(** Edge ids from a node up to one of its ancestors, in travel order.
    Raises [Invalid_argument] (["Tree.path_up: not an ancestor"]) if
    [ancestor] is not an ancestor. *)

val path_between : int -> int -> int list
(** Edge ids of the unique tree path between two nodes (via their LCA),
    in travel order from the first node. *)
