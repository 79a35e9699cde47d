(* Window-scoped shortest-path engine cache. See sp_window.mli for the
   exactness contract; the short version: an engine may be shared by two
   admits iff their weight functions are extensionally equal, and within
   one weight epoch that equality is decidable from a cheap key — the
   caller-chosen family string plus the bandwidth's feasibility bucket
   (two bandwidths prune the same saturated-link set iff the same number
   of residuals lies below them, because the pruned sets are nested). *)

module Sp = Mcgraph.Sp_engine
module Uf = Mcgraph.Union_find
module Obs = Nfv_obs.Obs

let c_creates = Obs.Counter.make "sp_window.engine_creates"
let c_reuses = Obs.Counter.make "sp_window.engine_reuses"

(* the components of the links one bucket admits, valid at [l_epoch];
   the forest is relabelled in place when the epoch moves *)
type labels = { mutable l_epoch : int; forest : Uf.t }

(* a price family's link prices: [table.(e)] is [price e] evaluated at
   the residual [priced_at.(e)] (nan until first read) *)
type prices = {
  p_net : Sdn.Network.t;
  price : int -> float;
  table : float array;
  priced_at : float array;
}

type t = {
  net : Sdn.Network.t;
  engines : (string * int, Sp.t) Hashtbl.t;
  labels : (int, labels) Hashtbl.t;
  price_tables : (string, prices) Hashtbl.t;
}

let create net =
  {
    net;
    engines = Hashtbl.create 8;
    labels = Hashtbl.create 8;
    price_tables = Hashtbl.create 2;
  }

let net t = t.net

(* The bucket of bandwidth [b] is |{e : not (link_admits net e b)}| under
   the current residuals, i.e. the number of links whose residual is
   strictly below [b -. 1e-9]. Counting through [link_admits] itself
   keeps the bucket bit-compatible with the weight functions that prune
   with it. Because the pruned sets are nested as [b] grows, an equal
   count implies an equal set. One linear pass and no snapshot: the
   epoch moves on nearly every admit under churn, so a sorted copy of
   the residuals would be rebuilt about as often as it is searched. *)
let bucket t ~bandwidth =
  let pruned = ref 0 in
  for e = 0 to Sdn.Network.m t.net - 1 do
    if not (Sdn.Network.link_admits t.net e bandwidth) then incr pruned
  done;
  !pruned

(* Equal bucket at an equal epoch means an equal admitted link set, so
   the labels are a function of (epoch, bucket) exactly like the
   engines' weights are; each bucket keeps one forest for the window's
   lifetime and relabels it when it is read at a new epoch. *)
let connects t ~bucket:bkt ~bandwidth s dsts =
  let epoch = Sdn.Network.weight_epoch t.net in
  let l =
    match Hashtbl.find_opt t.labels bkt with
    | Some l -> l
    | None ->
      let l = { l_epoch = min_int; forest = Uf.create (Sdn.Network.n t.net) } in
      Hashtbl.replace t.labels bkt l;
      l
  in
  (* bucket 0 admits every link at any epoch, so its labels never go
     stale *)
  if l.l_epoch = min_int || (bkt > 0 && l.l_epoch <> epoch) then begin
    let g = Sdn.Network.graph t.net in
    Uf.reset l.forest;
    for e = 0 to Sdn.Network.m t.net - 1 do
      if Sdn.Network.link_admits t.net e bandwidth then
        ignore (Uf.union l.forest (Mcgraph.Graph.edge_u g e) (Mcgraph.Graph.edge_v g e))
    done;
    l.l_epoch <- epoch
  end;
  let rec all_joined = function
    | [] -> true
    | d :: rest -> Uf.same l.forest s d && all_joined rest
  in
  all_joined dsts

let engine t ~family ~bucket:bkt ~weight =
  let key = (family, bkt) in
  match Hashtbl.find_opt t.engines key with
  | Some eng ->
    (* same key: either the epoch is unchanged (closures extensionally
       equal by the caller's keying, cached trees stay valid) or it
       moved (renew sweeps before swapping the closure) *)
    Sp.renew eng ~weight;
    Obs.Counter.incr c_reuses;
    eng
  | None ->
    let eng =
      Sp.create (Sdn.Network.graph t.net) ~weight
        ~epoch:(fun () -> Sdn.Network.weight_epoch t.net)
    in
    Hashtbl.replace t.engines key eng;
    Obs.Counter.incr c_creates;
    eng

let prices t ~family ~price =
  match Hashtbl.find_opt t.price_tables family with
  | Some p -> p
  | None ->
    let m = Sdn.Network.m t.net in
    let p =
      {
        p_net = t.net;
        price;
        table = Array.make m 0.0;
        priced_at = Array.make m Float.nan;
      }
    in
    Hashtbl.replace t.price_tables family p;
    p

(* A family's price reads the link's capacity, which never changes, and
   its residual, so an entry stays exact until the residual moves. The
   float compare treats -0.0 and 0.0 as one residual; a price reads the
   residual only through [residual /. capacity] and [1.0 -. _], which
   give equal results on both. A nan never compares equal, so it is
   never served from the table. *)
let price p e =
  let r = Sdn.Network.link_residual p.p_net e in
  if r <> p.priced_at.(e) then begin
    p.table.(e) <- p.price e;
    p.priced_at.(e) <- r
  end;
  p.table.(e)
