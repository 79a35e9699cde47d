(* Metrics/tracing substrate. Everything is registered in global
   per-kind registries so exporters can walk the full instrument
   population without the instrumented layers knowing about each other.
   Recording is gated on [enabled]; see obs.mli for the contract.

   Domain safety: the global registries belong to the main domain and
   are never touched from any other domain. A worker domain records
   into a private per-domain shard (domain-local storage, keyed by
   instrument name); the parallel harness collects each worker's shard
   after [Domain.join] and folds it into the global registries with
   [Sharding.merge]. Handles created at module-init time in the main
   domain can therefore be used from any domain: every operation
   dispatches on [Domain.is_main_domain]. *)

let enabled = ref false
let clock = ref Sys.time

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = '-' || c = '/')
       name

let check_name name =
  if not (valid_name name) then
    invalid_arg ("Obs: invalid instrument name: " ^ name)

(* Insertion-ordered name-keyed registry; [find_or_add] makes every
   constructor idempotent per name. *)
module Registry = struct
  type 'a t = { tbl : (string, 'a) Hashtbl.t; mutable rev_order : 'a list }

  let create () = { tbl = Hashtbl.create 32; rev_order = [] }

  let find_or_add r name build =
    check_name name;
    match Hashtbl.find_opt r.tbl name with
    | Some x -> x
    | None ->
      let x = build () in
      Hashtbl.replace r.tbl name x;
      r.rev_order <- x :: r.rev_order;
      x

  let find_opt r name = Hashtbl.find_opt r.tbl name
  let items r = List.rev r.rev_order

  let clear r =
    Hashtbl.reset r.tbl;
    r.rev_order <- []
end

(* ---- per-domain shards (worker-side storage) ----

   A worker domain must not mutate the global registries (races with
   the main domain and with other workers), so each domain owns a
   shard: one name-keyed registry per instrument kind, holding plain
   mutable cells. Cells are created lazily on first record and carry
   everything [Sharding.merge] needs to fold them back. *)

type counter_cell = { c_name : string; mutable c_v : int }

type hist_cell = {
  h_name : string;
  h_bkts : int array;
  mutable h_count : int;
  mutable h_sum : float;
}

type shard_store = {
  sh_counters : counter_cell Registry.t;
  sh_hists : hist_cell Registry.t;
}

let fresh_shard () =
  { sh_counters = Registry.create (); sh_hists = Registry.create () }

let shard_key : shard_store Domain.DLS.key = Domain.DLS.new_key fresh_shard
let local_shard () = Domain.DLS.get shard_key
let in_main () = Domain.is_main_domain ()

module Counter = struct
  type t = { name : string; mutable v : int }

  let registry : t Registry.t = Registry.create ()

  (* In the main domain, [make] registers globally as before. In a
     worker it returns a detached handle — a pure name carrier whose
     record operations resolve to this domain's shard — so dynamic
     registration (e.g. span histograms) never touches shared state. *)
  let make name =
    if in_main () then Registry.find_or_add registry name (fun () -> { name; v = 0 })
    else begin
      check_name name;
      { name; v = 0 }
    end

  let cell t =
    Registry.find_or_add (local_shard ()).sh_counters t.name (fun () ->
        { c_name = t.name; c_v = 0 })

  let incr t =
    if !enabled then
      if in_main () then t.v <- t.v + 1
      else begin
        let c = cell t in
        c.c_v <- c.c_v + 1
      end

  let add t n =
    if !enabled then
      if in_main () then t.v <- t.v + n
      else begin
        let c = cell t in
        c.c_v <- c.c_v + n
      end

  (* reads are per-domain views: the global value in the main domain,
     this domain's unmerged contribution in a worker — which is exactly
     what before/after delta attribution inside a worker needs *)
  let value t =
    if in_main () then t.v
    else
      match Registry.find_opt (local_shard ()).sh_counters t.name with
      | Some c -> c.c_v
      | None -> 0

  let name t = t.name
end

module Histogram = struct
  type t = {
    name : string;
    bkts : int array;   (* one per default bound, plus the overflow *)
    mutable count : int;
    mutable sum : float;
  }

  let registry : t Registry.t = Registry.create ()
  let default_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]
  let n_buckets = Array.length default_bounds + 1
  let empty_buckets () = Array.make n_buckets 0

  let make name =
    if in_main () then
      Registry.find_or_add registry name (fun () ->
          { name; bkts = empty_buckets (); count = 0; sum = 0.0 })
    else begin
      check_name name;
      { name; bkts = empty_buckets (); count = 0; sum = 0.0 }
    end

  let cell t =
    Registry.find_or_add (local_shard ()).sh_hists t.name (fun () ->
        { h_name = t.name; h_bkts = empty_buckets (); h_count = 0; h_sum = 0.0 })

  let bucket_index x =
    let n = Array.length default_bounds in
    let i = ref 0 in
    while !i < n && x > default_bounds.(!i) do
      incr i
    done;
    !i

  let observe t x =
    if !enabled then
      if in_main () then begin
        t.count <- t.count + 1;
        t.sum <- t.sum +. x;
        let i = bucket_index x in
        t.bkts.(i) <- t.bkts.(i) + 1
      end
      else begin
        let c = cell t in
        c.h_count <- c.h_count + 1;
        c.h_sum <- c.h_sum +. x;
        let i = bucket_index x in
        c.h_bkts.(i) <- c.h_bkts.(i) + 1
      end

  (* per-domain view of (count, sum, buckets); worker reads see this
     domain's unmerged contribution, like Counter.value *)
  let view t =
    if in_main () then (t.count, t.sum, t.bkts)
    else
      match Registry.find_opt (local_shard ()).sh_hists t.name with
      | Some c -> (c.h_count, c.h_sum, c.h_bkts)
      | None -> (0, 0.0, empty_buckets ())

  let count t =
    let c, _, _ = view t in
    c

  let sum t =
    let _, s, _ = view t in
    s

  let mean t =
    let c, s, _ = view t in
    if c = 0 then 0.0 else s /. float_of_int c

  let buckets t =
    let _, _, b = view t in
    Array.copy b

  (* the upper bound of the first non-empty bucket at which the
     cumulative count reaches q * total. [cum > 0]: with q = 0 the
     target is 0 and a bare [>=] would fire on a leading empty bucket,
     reporting a bound no observation ever fell under *)
  let bucket_quantile buckets q =
    if q < 0.0 || q > 1.0 then invalid_arg "Obs.Histogram.bucket_quantile";
    let total = Array.fold_left ( + ) 0 buckets in
    if total = 0 then 0.0
    else begin
      let target = q *. float_of_int total in
      let rec go i cum =
        let cum = cum + buckets.(i) in
        if cum > 0 && float_of_int cum >= target then
          if i < Array.length default_bounds then default_bounds.(i)
          else infinity
        else if i + 1 < Array.length buckets then go (i + 1) cum
        else infinity
      in
      go 0 0
    end

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Obs.Histogram.quantile";
    let _, _, bkts = view t in
    bucket_quantile bkts q

  let name t = t.name
end

module Span = struct
  (* stack of full paths, innermost first, one per domain; only touched
     while enabled *)
  let stack_key : string list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let current () =
    match !(Domain.DLS.get stack_key) with [] -> None | p :: _ -> Some p

  let run name f =
    if not !enabled then f ()
    else begin
      let stack = Domain.DLS.get stack_key in
      let path =
        match !stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
      in
      let hist = Histogram.make path in
      stack := path :: !stack;
      let t0 = !clock () in
      Fun.protect
        ~finally:(fun () ->
          (match !stack with _ :: rest -> stack := rest | [] -> ());
          Histogram.observe hist (!clock () -. t0))
        f
    end
end

let reset_all () =
  if in_main () then begin
    List.iter (fun (c : Counter.t) -> c.Counter.v <- 0)
      (Registry.items Counter.registry);
    List.iter
      (fun (h : Histogram.t) ->
        h.Histogram.count <- 0;
        h.Histogram.sum <- 0.0;
        Array.fill h.Histogram.bkts 0 (Array.length h.Histogram.bkts) 0)
      (Registry.items Histogram.registry)
  end
  else begin
    (* a worker can only zero its own shard; the global registries stay
       untouched (they belong to the main domain) *)
    let s = local_shard () in
    Registry.clear s.sh_counters;
    Registry.clear s.sh_hists
  end

module Sharding = struct
  type shard = shard_store

  let take () =
    if in_main () then fresh_shard ()
    else begin
      let s = Domain.DLS.get shard_key in
      Domain.DLS.set shard_key (fresh_shard ());
      s
    end

  let merge s =
    if not (in_main ()) then
      invalid_arg "Obs.Sharding.merge: must be called from the main domain";
    List.iter
      (fun (c : counter_cell) ->
        let g = Counter.make c.c_name in
        g.Counter.v <- g.Counter.v + c.c_v)
      (Registry.items s.sh_counters);
    List.iter
      (fun (hc : hist_cell) ->
        let h = Histogram.make hc.h_name in
        h.Histogram.count <- h.Histogram.count + hc.h_count;
        h.Histogram.sum <- h.Histogram.sum +. hc.h_sum;
        Array.iteri
          (fun i k -> h.Histogram.bkts.(i) <- h.Histogram.bkts.(i) + k)
          hc.h_bkts)
      (Registry.items s.sh_hists)
end

module Export = struct
  type metric =
    | Counter of string * int
    | Histogram of {
        name : string;
        count : int;
        sum : float;
        buckets : int array;
      }

  type snapshot = metric list

  (* Sorted by name within each kind: registration order depends on
     which domain first touched an instrument (worker shards register on
     merge), so insertion order would make exports differ across --jobs
     settings. Name order makes two snapshots of the same run diffable
     regardless of scheduling. *)
  let by_name name xs =
    List.sort (fun a b -> String.compare (name a) (name b)) xs

  let snapshot () =
    List.map
      (fun c -> Counter (Counter.name c, Counter.value c))
      (by_name Counter.name (Registry.items Counter.registry))
    @ List.map
        (fun h ->
          Histogram
            {
              name = Histogram.name h;
              count = Histogram.count h;
              sum = Histogram.sum h;
              buckets = Histogram.buckets h;
            })
        (by_name Histogram.name (Registry.items Histogram.registry))

  (* %.17g round-trips every finite double through float_of_string *)
  let fstr x = Printf.sprintf "%.17g" x

  let join conv a = String.concat "," (Array.to_list (Array.map conv a))

  let to_json snap =
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let group kind keep emit =
      add "%S:{" kind;
      let first = ref true in
      List.iter
        (fun m ->
          match keep m with
          | None -> ()
          | Some x ->
            if !first then first := false else Buffer.add_char buf ',';
            emit x)
        snap;
      Buffer.add_char buf '}'
    in
    Buffer.add_char buf '{';
    group "counters"
      (function Counter (n, v) -> Some (n, v) | _ -> None)
      (fun (n, v) -> add "%S:%d" n v);
    Buffer.add_char buf ',';
    group "histograms"
      (function
        | Histogram { name; count; sum; buckets } ->
          Some (name, count, sum, buckets)
        | _ -> None)
      (fun (name, count, sum, buckets) ->
        add "%S:{\"count\":%d,\"sum\":%s,\"bounds\":[%s],\"buckets\":[%s]}" name
          count (fstr sum)
          (join fstr Histogram.default_bounds)
          (join string_of_int buckets));
    Buffer.add_char buf '}';
    Buffer.contents buf

  (* ---- human-readable table ---- *)

  let pp_table ppf snap =
    let counters =
      List.filter_map
        (function Counter (n, v) when v <> 0 -> Some (n, v) | _ -> None)
        snap
    in
    let hists =
      List.filter_map
        (function
          | Histogram { name; count; sum; buckets } when count <> 0 ->
            Some (name, count, sum, buckets)
          | _ -> None)
        snap
    in
    let bounds = Histogram.default_bounds in
    Format.fprintf ppf "== nfv-obs metrics ==@.";
    if counters = [] && hists = [] then
      Format.fprintf ppf "(no instrument fired)@."
    else begin
      if counters <> [] then begin
        Format.fprintf ppf "counters:@.";
        List.iter
          (fun (n, v) -> Format.fprintf ppf "  %-44s %12d@." n v)
          counters
      end;
      if hists <> [] then begin
        Format.fprintf ppf "histograms (seconds):@.";
        List.iter
          (fun (name, count, sum, buckets) ->
            let q = Histogram.bucket_quantile buckets in
            Format.fprintf ppf
              "  %-44s %8d obs  mean %8.3f ms  p50<=%g p95<=%g p99<=%g@." name
              count
              (1000.0 *. sum /. float_of_int (max count 1))
              (q 0.5) (q 0.95) (q 0.99);
            Array.iteri
              (fun i c ->
                if c > 0 then
                  if i < Array.length bounds then
                    Format.fprintf ppf "    <=%-10g %10d@." bounds.(i) c
                  else Format.fprintf ppf "    overflow    %10d@." c)
              buckets)
          hists
      end
    end

  let print_table oc =
    let ppf = Format.formatter_of_out_channel oc in
    pp_table ppf (snapshot ());
    Format.pp_print_flush ppf ()
end
