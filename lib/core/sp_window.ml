(* Window-scoped shortest-path engine cache. See sp_window.mli for the
   exactness contract; the short version: an engine may be shared by two
   admits iff their weight functions are extensionally equal, and within
   one weight epoch that equality is decidable from a cheap key — the
   caller-chosen family string plus the bandwidth's feasibility bucket
   (two bandwidths prune the same saturated-link set iff the same number
   of residuals lies below them, because the pruned sets are nested). *)

module Sp = Mcgraph.Sp_engine
module Obs = Nfv_obs.Obs

let c_creates = Obs.Counter.make "sp_window.engine_creates"
let c_reuses = Obs.Counter.make "sp_window.engine_reuses"

type stats = { engines : int; acquisitions : int; reuses : int }

type t = {
  net : Sdn.Network.t;
  engines : (string * int, Sp.t) Hashtbl.t;
  mutable acquisitions : int;
  mutable reuses : int;
}

let create net =
  {
    net;
    engines = Hashtbl.create 8;
    acquisitions = 0;
    reuses = 0;
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

let engine t ~family ~bucket:bkt ~weight =
  t.acquisitions <- t.acquisitions + 1;
  let key = (family, bkt) in
  match Hashtbl.find_opt t.engines key with
  | Some eng ->
    (* same key: either the epoch is unchanged (closures extensionally
       equal by the caller's keying, cached trees stay valid) or it
       moved (renew sweeps before swapping the closure) *)
    Sp.renew eng ~weight;
    t.reuses <- t.reuses + 1;
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

let stats t =
  { engines = Hashtbl.length t.engines; acquisitions = t.acquisitions; reuses = t.reuses }
