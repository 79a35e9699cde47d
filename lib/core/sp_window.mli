(** Window-scoped shortest-path engine cache for batched admission.

    The online algorithms price each request with a per-request weight
    function and run lazy Dijkstras through {!Mcgraph.Sp_engine}, always
    on an engine from a window; {!Appro_multi} does too when given one.
    A window is created once per admission run — {!Admission.pricing}
    creates it (or checks the caller's is over the same network) for
    {!Admission.run}, {!Dynamic.run} and {!Repair}; {!Online_multi.run}
    and {!Batch.plan} keep their own — and hands each admit an
    engine that persists across requests, so cached trees survive from
    one request to the next while nothing about the network changes
    (exactly the case after a rejection, which leaves
    {!Sdn.Network.weight_epoch} untouched). Only an
    [allocate]/[release]/[reset] that actually bumps the epoch causes
    the engine's cached trees to be swept (by the epoch contract of
    {!Mcgraph.Sp_engine}). A fresh window per request is a private
    engine per admit.

    {2 Exactness contract}

    Sharing is exact, not heuristic: two admits may share an engine only
    when their weight functions are {e extensionally equal}. The cache
    key has two parts the caller must choose accordingly:

    - [family] encodes everything that distinguishes weight functions
      {e other} than bandwidth-feasibility pruning: the algorithm and
      mode, plus any parameter the closure reads (callers embed e.g.
      [Int64.bits_of_float beta] in the string when a numeric parameter
      scales the weights). Availability-aware pricing follows the same
      discipline: {!Online_cp.engine}'s family key appends an
      ["+avail:<stamp>:<alpha-bits>"] token whenever an
      {!Online_cp.avail} with [alpha > 0] is in force, so surcharged
      and baseline weight functions never share an engine, and two
      distinct partitions (distinct stamps) never alias even at equal
      [alpha]. The surcharge itself is a per-epoch constant per link
      (group exposures are recomputed only when the weight epoch
      bumps), so within one epoch the keyed closure stays extensionally
      stable — the exactness argument below is unchanged.
    - [bucket] encodes the bandwidth-feasibility pruning itself: weight
      functions price a link at infinity when
      [not (Sdn.Network.link_admits net e b)]. Within one epoch the
      pruned set is a monotone function of [b] (sets are nested), so two
      bandwidths prune identically iff the same number of link residuals
      lies below them — the integer {!bucket} computes.

    Equal [(family, bucket)] at an equal epoch therefore implies equal
    weights, which is the contract {!Mcgraph.Sp_engine.renew} needs to
    swap closures without dropping valid trees. With the key discipline
    above, every admission outcome is bit-identical to that of a fresh
    window per request. *)

type t
(** A per-(network, admission-window) engine cache. *)

val create : Sdn.Network.t -> t
(** A fresh window over [net]; no engines until the first {!engine}. *)

val net : t -> Sdn.Network.t

val bucket : t -> bandwidth:float -> int
(** The bandwidth's feasibility class under the current residuals:
    [|{e : not (link_admits net e bandwidth)}|], counted in one O(m)
    pass over the link residuals ([residual < bandwidth -. 1e-9]); no
    snapshot is kept, so nothing depends on the weight epoch.
    Bit-compatible with [Sdn.Network.link_admits]'s tolerance. *)

val connects : t -> bucket:int -> bandwidth:float -> int -> int list -> bool
(** [connects t ~bucket ~bandwidth s ds] is whether every node of [ds]
    lies in [s]'s connected component of the subgraph of links that
    [link_admits] [bandwidth] — exactly the links the window's weight
    functions price finite, so [false] means some [d] is at distance
    [infinity] from [s] under any of them. [bucket] must be
    [bucket t ~bandwidth] at the current epoch. The labels are a
    function of (weight epoch, bucket) and are cached under that key:
    one union-find pass over the links on the first read of a bucket
    at an epoch, in a forest the bucket keeps and relabels in place.
    Bucket 0 admits every link, so its labels are computed once. *)

val engine :
  t -> family:string -> bucket:int -> weight:(int -> float) -> Mcgraph.Sp_engine.t
(** [engine t ~family ~bucket ~weight] is the window's engine for the
    key [(family, bucket)], created on first use and re-armed with
    [weight] (see {!Mcgraph.Sp_engine.renew}) on reuse. The caller
    guarantees the keying discipline of the module header. Telemetry,
    the window's only record of its acquisitions: each call is one
    [sp_window.engine_creates] (a new key) or one
    [sp_window.engine_reuses] (an existing engine). *)

(** {2 Link prices}

    Load-dependent prices such as Online_CP's [β^{utilisation} − 1] are
    costly to evaluate, yet between two fills of an engine's weight
    vector only the links an allocation or a release touched change
    residual. A window keeps one price table per price family so that
    every engine of the family, at every bucket and epoch, re-evaluates
    only those. *)

type prices
(** One family's link-price table, owned by the window. *)

val prices : t -> family:string -> price:(int -> float) -> prices
(** [prices t ~family ~price] is the window's table for [family],
    created on first use with [price]; later calls return it and ignore
    their [price]. As with {!engine}'s family, the caller guarantees
    that one family string names one function of a link's capacity and
    residual (callers embed the mode and e.g. [β]'s bits), so that
    [price e] is fixed by [e]'s residual. *)

val price : prices -> int -> float
(** [price p e] is the family's [price e] at [e]'s current residual,
    bit for bit: the stored value when [e]'s residual equals the one it
    was last evaluated at, otherwise [price e] evaluated now and
    stored. A link is evaluated only when read, so a link no weight
    function reads (one that cannot admit the bandwidth) is never
    priced. *)
