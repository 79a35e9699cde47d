(** Tiered recovery of admitted multicast trees after a failure.

    When {!Sdn.Fault} takes a link or an NFV server down, every session
    whose pseudo-multicast tree touched the failed resource is evicted:
    its allocation has already been released in full, but its request is
    still live. [repair] tries to restore service with escalating
    effort, preferring the cheapest change to the running tree:

    + {e Local patch} ({!Patched}) — keep the surviving part of the old
      tree and re-attach every severed destination/server through
      current shortest paths (the same {!Sp_window} engines admission
      uses, so cached Dijkstra trees are shared).
    + {e Server migration} ({!Migrated}) — keep the surviving tree
      spanning the destinations but move the service chain to a new
      server, chosen by the pruned candidate machinery of
      {!Online_cp} (distance-lower-bound screening with the same ULP
      {!Online_cp.slack} guard).
    + {e Full re-admission} ({!Readmitted}) — forget the old tree and
      run {!Admission.admit} from scratch under the run's pricing.

    Tiers 1–2 are capped (tier 1 gives up beyond 8 severed terminals,
    tier 2 prices at most 16 candidate servers) and every tier is
    instrumented; a request that no tier can restore is {!Dropped} with
    nothing allocated.

    {2 Preconditions and exactness}

    The victim's old allocation must already be {e fully released}
    (exactly what {!Sdn.Fault.inject} guarantees), and failed resources
    must be unavailable in the network itself — Fault's confiscation
    leaves them with zero residual, so every weight function prices them
    at [infinity] and no tier can route through them. The [link_down] /
    [server_down] predicates only tell repair {e which parts of the old
    tree} to treat as lost; they do not influence pricing. On success
    the returned tree's allocation has been atomically committed; on
    {!Dropped} the network is exactly as the failure left it.

    {2 Determinism}

    Repair reads no clock (telemetry aside) and draws no randomness:
    candidate orders are (score, id)-sorted with fixed tie-breaks, so a
    given (network state, victim, predicates) always yields the same
    outcome — the property the churn experiment's [--jobs] invariance
    rests on.

    {2 Telemetry}

    Counters [repair.attempted], [repair.patched], [repair.migrated],
    [repair.readmitted], [repair.dropped] (every attempt increments
    exactly one terminal counter, so the four outcomes sum to
    [repair.attempted]) and [repair.migrate.pruned] for candidates
    screened out by the lower bound; span histograms [repair.patch],
    [repair.migrate], [repair.readmit] time each tier and
    [repair.attempt] the whole call. *)

type tier =
  | Patched  (** tier 1: severed subtrees re-attached, server kept *)
  | Migrated  (** tier 2: surviving tree kept, service chain moved *)
  | Readmitted  (** tier 3: fresh admission, old structure discarded *)

type outcome =
  | Repaired of { tree : Pseudo_tree.t; tier : tier }
      (** the new tree's resources are reserved in the network *)
  | Dropped of string  (** no tier succeeded; nothing is allocated *)

val repair :
  Admission.pricing ->
  link_down:(int -> bool) ->
  server_down:(int -> bool) ->
  Pseudo_tree.t ->
  outcome
(** [repair pricing ~link_down ~server_down victim] attempts the tiers
    in order on an evicted tree whose allocation is already released,
    over the network of the pricing's window and under the run's
    {!Admission.pricing} context: tiers 1–2 search the context's
    {!Online_cp.engine} (same {!Online_cp.pricing} as admission, so
    patching after an admission burst starts from warm Dijkstra trees)
    and tier 3 is [Admission.admit pricing], priced exactly like any
    fresh admission. *)
