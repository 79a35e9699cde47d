(** Online admission with multi-server chain placement — the K > 1
    online setting the paper leaves open ("we propose an online algorithm
    … if K = 1").

    Per request: price links and servers as {!Online_cp} does, run
    Appro_Multi's auxiliary-graph machinery over all combinations of at
    most K servers under those prices, and admit the cheapest
    combination that can atomically reserve its resources. No σ
    thresholds are applied (see EXPERIMENTS.md on their measured
    conservatism); capacity feasibility is enforced by pruning and by the
    atomic allocation. *)

type admitted = {
  tree : Pseudo_tree.t;
  servers : int list;
  score : float;   (** auxiliary-tree weight under the online prices *)
}

type outcome = Admitted of admitted | Rejected of string

val admit : ?k:int -> Sp_window.t -> Sdn.Request.t -> outcome
(** [admit ?k window r] admits [r] on the window's network. Default
    [k = 2]. Prices are Online_CP's exponential ones
    ([`Exponential], {!Online_cp.default_params}): links cost what
    {!Online_cp.engine} prices them at (exponential weight plus hop
    epsilon, [infinity] without the bandwidth's residual), read through
    [window]; a server [v] costs [Online_cp.server_weight p ~demand v]
    plus its utilisation increment [demand / C_v]. On admission the
    network's residuals are reduced by the tree's allocation. Any window
    over the network gives the same decisions, by {!Sp_window}'s
    contract. *)

val run : ?k:int -> Sdn.Network.t -> Sdn.Request.t list -> int
(** [run ?k net requests] resets [net] and admits the sequence through
    one fresh window for the whole run, returning the number of admitted
    requests. The window is shared only to match {!Admission.run}; a
    fresh window per request gives the same result, and on the ablation
    A4 workload no more cache hits. *)
