(** Graphviz DOT rendering of graphs and highlighted subgraphs. *)

val graph :
  ?name:string ->
  ?node_label:(int -> string) ->
  ?edge_label:(int -> string) ->
  ?highlight_edges:int list ->
  ?highlight_nodes:int list ->
  Graph.t ->
  string
(** DOT source for an undirected graph. Highlighted edges are drawn bold
    red (e.g. a multicast tree), highlighted nodes as doubled circles
    (e.g. chosen servers). *)

val tree :
  ?name:string ->
  ?node_label:(int -> string) ->
  Graph.t ->
  root:int ->
  int list ->
  string
(** [tree g ~root edges] is DOT source for [edges] rooted at [root]
    (through {!Tree.root}, so it replaces the domain's rooting and
    raises where that does), drawn as a digraph away from the root. *)
