(* Metrics/tracing substrate. Every instrument is registered by name in
   its domain's store — one insertion-ordered registry per instrument
   kind — so exporters can walk the full instrument population without
   the instrumented layers knowing about each other. Recording is gated
   on [enabled]; see obs.mli for the contract.

   Domain safety: every domain records into its own store, held in
   domain-local storage. The main domain's store is the global registry
   that exports read. A worker's store is private to it: the parallel
   harness hands what [Sharding.take] returns to [Sharding.merge] after
   [Domain.join], which folds it into the global registry. A handle is
   the cell its [make] registered, so a main-domain handle records in
   place; a worker resolves any handle to the cell of the same name in
   its own store. *)

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
    match Hashtbl.find_opt r.tbl name with
    | Some x -> x
    | None ->
      let x = build () in
      Hashtbl.replace r.tbl name x;
      r.rev_order <- x :: r.rev_order;
      x

  let find_opt r name = Hashtbl.find_opt r.tbl name
  let items r = List.rev r.rev_order
end

(* ---- cells and stores: one cell type per instrument kind ---- *)

type counter = { c_name : string; mutable v : int }

type histogram = {
  h_name : string;
  bkts : int array;   (* one per default bound, plus the overflow *)
  mutable count : int;
  mutable sum : float;
}

type store = { counters : counter Registry.t; hists : histogram Registry.t }

let fresh_store () =
  { counters = Registry.create (); hists = Registry.create () }
let store_key : store Domain.DLS.key = Domain.DLS.new_key fresh_store
let local () = Domain.DLS.get store_key
let in_main () = Domain.is_main_domain ()

module Counter = struct
  type t = counter

  let fresh name () = { c_name = name; v = 0 }

  let make name =
    check_name name;
    Registry.find_or_add (local ()).counters name (fresh name)

  (* the calling domain's cell of [t]'s name *)
  let cell t = if in_main () then t else make t.c_name

  let incr t =
    if !enabled then begin
      let c = cell t in
      c.v <- c.v + 1
    end

  let add t n =
    if !enabled then begin
      let c = cell t in
      c.v <- c.v + n
    end

  (* reads are per-domain views and register nothing: a worker reads
     its own unmerged contribution, which is exactly what before/after
     delta attribution inside a worker needs *)
  let value t =
    if in_main () then t.v
    else
      match Registry.find_opt (local ()).counters t.c_name with
      | Some c -> c.v
      | None -> 0

  let name t = t.c_name
end

module Histogram = struct
  type t = histogram

  let default_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]
  let n_buckets = Array.length default_bounds + 1

  let fresh name () =
    { h_name = name; bkts = Array.make n_buckets 0; count = 0; sum = 0.0 }

  let make name =
    check_name name;
    Registry.find_or_add (local ()).hists name (fresh name)

  let cell t = if in_main () then t else make t.h_name

  let bucket_index x =
    let n = Array.length default_bounds in
    let i = ref 0 in
    while !i < n && x > default_bounds.(!i) do
      incr i
    done;
    !i

  let observe t x =
    if !enabled then begin
      let c = cell t in
      c.count <- c.count + 1;
      c.sum <- c.sum +. x;
      let i = bucket_index x in
      c.bkts.(i) <- c.bkts.(i) + 1
    end

  (* per-domain view, like Counter.value: an unregistered cell when a
     worker never recorded into [t] *)
  let view t =
    if in_main () then t
    else
      match Registry.find_opt (local ()).hists t.h_name with
      | Some c -> c
      | None -> fresh t.h_name ()

  let count t = (view t).count
  let sum t = (view t).sum

  let mean t =
    let c = view t in
    if c.count = 0 then 0.0 else c.sum /. float_of_int c.count

  let buckets t = Array.copy (view t).bkts

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
    bucket_quantile (view t).bkts q

  let name t = t.h_name
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

(* zero the calling domain's store; its instruments stay registered *)
let reset_all () =
  let s = local () in
  List.iter (fun (c : counter) -> c.v <- 0) (Registry.items s.counters);
  List.iter
    (fun h ->
      h.count <- 0;
      h.sum <- 0.0;
      Array.fill h.bkts 0 (Array.length h.bkts) 0)
    (Registry.items s.hists)

module Sharding = struct
  type shard = store

  let take () =
    if in_main () then fresh_store ()
    else begin
      let s = local () in
      Domain.DLS.set store_key (fresh_store ());
      s
    end

  let merge s =
    if not (in_main ()) then
      invalid_arg "Obs.Sharding.merge: must be called from the main domain";
    List.iter
      (fun (c : counter) ->
        let g = Counter.make c.c_name in
        g.v <- g.v + c.v)
      (Registry.items s.counters);
    List.iter
      (fun h ->
        let g = Histogram.make h.h_name in
        g.count <- g.count + h.count;
        g.sum <- g.sum +. h.sum;
        Array.iteri (fun i k -> g.bkts.(i) <- g.bkts.(i) + k) h.bkts)
      (Registry.items s.hists)
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
     which domain first touched an instrument (worker stores register on
     merge), so insertion order would make exports differ across --jobs
     settings. Name order makes two snapshots of the same run diffable
     regardless of scheduling. *)
  let by_name name xs =
    List.sort (fun a b -> String.compare (name a) (name b)) xs

  (* the calling domain's store: the global registry in the main domain *)
  let snapshot () =
    let s = local () in
    List.map
      (fun (c : counter) -> Counter (c.c_name, c.v))
      (by_name Counter.name (Registry.items s.counters))
    @ List.map
        (fun h ->
          Histogram
            {
              name = h.h_name;
              count = h.count;
              sum = h.sum;
              buckets = Array.copy h.bkts;
            })
        (by_name Histogram.name (Registry.items s.hists))

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
