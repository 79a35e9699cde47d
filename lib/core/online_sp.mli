(** The [SP] online baseline (§VI-A).

    For each request: remove links and servers without enough residual
    resources, give every remaining link the same unit weight, and for
    each candidate server [v] combine a shortest path [s_k → v] with a
    single-source shortest-path tree rooted at [v] spanning the
    destinations. The cheapest (fewest total edges) combination is
    admitted. Load-oblivious by design — the foil for [Online_CP]. *)

type admitted = {
  tree : Pseudo_tree.t;
  server : int;
  hops : int;   (** total edge count of path + tree (the SP objective) *)
}

type outcome = Admitted of admitted | Rejected of string

val admit : Sp_window.t -> Sdn.Request.t -> outcome
(** Decide one request over [Sp_window.net window]; on admission the
    network's residuals are reduced. The window's engines share the
    per-server shortest-path trees across the requests of an admission
    run (exact — see {!Sp_window}); a fresh window per request gives
    each call a private engine. *)
