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
type gauge_cell = { g_name : string; mutable g_v : float }

type timer_cell = {
  t_name : string;
  mutable t_count : int;
  mutable t_total : float;
}

type hist_cell = {
  h_name : string;
  h_bnds : float array;
  h_bkts : int array;
  mutable h_count : int;
  mutable h_sum : float;
}

type shard_store = {
  sh_counters : counter_cell Registry.t;
  sh_gauges : gauge_cell Registry.t;
  sh_timers : timer_cell Registry.t;
  sh_hists : hist_cell Registry.t;
}

let fresh_shard () =
  {
    sh_counters = Registry.create ();
    sh_gauges = Registry.create ();
    sh_timers = Registry.create ();
    sh_hists = Registry.create ();
  }

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

module Gauge = struct
  type t = { name : string; mutable v : float }

  let registry : t Registry.t = Registry.create ()

  let make name =
    if in_main () then
      Registry.find_or_add registry name (fun () -> { name; v = 0.0 })
    else begin
      check_name name;
      { name; v = 0.0 }
    end

  let set t x =
    if !enabled then
      if in_main () then t.v <- x
      else begin
        let c =
          Registry.find_or_add (local_shard ()).sh_gauges t.name (fun () ->
              { g_name = t.name; g_v = 0.0 })
        in
        c.g_v <- x
      end

  let value t =
    if in_main () then t.v
    else
      match Registry.find_opt (local_shard ()).sh_gauges t.name with
      | Some c -> c.g_v
      | None -> 0.0

  let name t = t.name
end

module Timer = struct
  type t = { name : string; mutable count : int; mutable total : float }

  let registry : t Registry.t = Registry.create ()

  let make name =
    if in_main () then
      Registry.find_or_add registry name (fun () ->
          { name; count = 0; total = 0.0 })
    else begin
      check_name name;
      { name; count = 0; total = 0.0 }
    end

  let record t dt =
    if in_main () then begin
      t.count <- t.count + 1;
      t.total <- t.total +. dt
    end
    else begin
      let c =
        Registry.find_or_add (local_shard ()).sh_timers t.name (fun () ->
            { t_name = t.name; t_count = 0; t_total = 0.0 })
      in
      c.t_count <- c.t_count + 1;
      c.t_total <- c.t_total +. dt
    end

  let add t dt =
    if dt < 0.0 then invalid_arg "Obs.Timer.add: negative duration";
    if !enabled then record t dt

  let time t f =
    if not !enabled then f ()
    else begin
      let t0 = !clock () in
      Fun.protect ~finally:(fun () -> record t (!clock () -. t0)) f
    end

  let count t =
    if in_main () then t.count
    else
      match Registry.find_opt (local_shard ()).sh_timers t.name with
      | Some c -> c.t_count
      | None -> 0

  let total t =
    if in_main () then t.total
    else
      match Registry.find_opt (local_shard ()).sh_timers t.name with
      | Some c -> c.t_total
      | None -> 0.0

  let name t = t.name
end

module Histogram = struct
  type t = {
    name : string;
    bnds : float array;
    bkts : int array;   (* length = Array.length bnds + 1; last = overflow *)
    mutable count : int;
    mutable sum : float;
  }

  let registry : t Registry.t = Registry.create ()
  let default_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

  let check_bounds b =
    if Array.length b = 0 then invalid_arg "Obs.Histogram.make: empty bounds";
    Array.iteri
      (fun i x ->
        if not (Float.is_finite x) then
          invalid_arg "Obs.Histogram.make: non-finite bound";
        if i > 0 && x <= b.(i - 1) then
          invalid_arg "Obs.Histogram.make: bounds not strictly increasing")
      b

  let make ?(bounds = default_bounds) name =
    if in_main () then
      Registry.find_or_add registry name (fun () ->
          check_bounds bounds;
          {
            name;
            bnds = Array.copy bounds;
            bkts = Array.make (Array.length bounds + 1) 0;
            count = 0;
            sum = 0.0;
          })
    else begin
      check_name name;
      check_bounds bounds;
      {
        name;
        bnds = Array.copy bounds;
        bkts = Array.make (Array.length bounds + 1) 0;
        count = 0;
        sum = 0.0;
      }
    end

  let cell t =
    Registry.find_or_add (local_shard ()).sh_hists t.name (fun () ->
        {
          h_name = t.name;
          h_bnds = Array.copy t.bnds;
          h_bkts = Array.make (Array.length t.bnds + 1) 0;
          h_count = 0;
          h_sum = 0.0;
        })

  let bucket_index bnds x =
    let n = Array.length bnds in
    let i = ref 0 in
    while !i < n && x > bnds.(!i) do
      incr i
    done;
    !i

  let observe t x =
    if !enabled then
      if in_main () then begin
        t.count <- t.count + 1;
        t.sum <- t.sum +. x;
        let i = bucket_index t.bnds x in
        t.bkts.(i) <- t.bkts.(i) + 1
      end
      else begin
        let c = cell t in
        c.h_count <- c.h_count + 1;
        c.h_sum <- c.h_sum +. x;
        let i = bucket_index c.h_bnds x in
        c.h_bkts.(i) <- c.h_bkts.(i) + 1
      end

  (* per-domain view of (count, sum, buckets); worker reads see this
     domain's unmerged contribution, like Counter.value *)
  let view t =
    if in_main () then (t.count, t.sum, t.bkts)
    else
      match Registry.find_opt (local_shard ()).sh_hists t.name with
      | Some c -> (c.h_count, c.h_sum, c.h_bkts)
      | None -> (0, 0.0, t.bkts)

  let count t =
    let c, _, _ = view t in
    c

  let sum t =
    let _, s, _ = view t in
    s

  let mean t =
    let c, s, _ = view t in
    if c = 0 then 0.0 else s /. float_of_int c

  let bounds t = Array.copy t.bnds

  let buckets t =
    let c, _, b = view t in
    if c = 0 && not (in_main ()) then Array.make (Array.length t.bnds + 1) 0
    else Array.copy b

  (* the upper bound of the first non-empty bucket at which the
     cumulative count reaches q * total. [cum > 0]: with q = 0 the
     target is 0 and a bare [>=] would fire on a leading empty bucket,
     reporting a bound no observation ever fell under *)
  let bucket_quantile ~bounds buckets q =
    if q < 0.0 || q > 1.0 then invalid_arg "Obs.Histogram.bucket_quantile";
    let total = Array.fold_left ( + ) 0 buckets in
    if total = 0 then 0.0
    else begin
      let target = q *. float_of_int total in
      let rec go i cum =
        let cum = cum + buckets.(i) in
        if cum > 0 && float_of_int cum >= target then
          if i < Array.length bounds then bounds.(i) else infinity
        else if i + 1 < Array.length buckets then go (i + 1) cum
        else infinity
      in
      go 0 0
    end

  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Obs.Histogram.quantile";
    let _, _, bkts = view t in
    bucket_quantile ~bounds:t.bnds bkts q

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
    List.iter (fun (g : Gauge.t) -> g.Gauge.v <- 0.0)
      (Registry.items Gauge.registry);
    List.iter
      (fun (t : Timer.t) ->
        t.Timer.count <- 0;
        t.Timer.total <- 0.0)
      (Registry.items Timer.registry);
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
    Registry.clear s.sh_gauges;
    Registry.clear s.sh_timers;
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
      (fun (gc : gauge_cell) ->
        let g = Gauge.make gc.g_name in
        g.Gauge.v <- gc.g_v)
      (Registry.items s.sh_gauges);
    List.iter
      (fun (tc : timer_cell) ->
        let t = Timer.make tc.t_name in
        t.Timer.count <- t.Timer.count + tc.t_count;
        t.Timer.total <- t.Timer.total +. tc.t_total)
      (Registry.items s.sh_timers);
    List.iter
      (fun (hc : hist_cell) ->
        let h = Histogram.make ~bounds:hc.h_bnds hc.h_name in
        h.Histogram.count <- h.Histogram.count + hc.h_count;
        h.Histogram.sum <- h.Histogram.sum +. hc.h_sum;
        if h.Histogram.bnds = hc.h_bnds then
          Array.iteri
            (fun i k -> h.Histogram.bkts.(i) <- h.Histogram.bkts.(i) + k)
            hc.h_bkts
        else begin
          (* bounds mismatch — a contract violation (idempotent [make]
             requires one bounds array per name); keep the totals honest
             by folding everything into the overflow bucket *)
          let last = Array.length h.Histogram.bkts - 1 in
          let tot = Array.fold_left ( + ) 0 hc.h_bkts in
          h.Histogram.bkts.(last) <- h.Histogram.bkts.(last) + tot
        end)
      (Registry.items s.sh_hists)
end

module Export = struct
  type metric =
    | Counter of string * int
    | Gauge of string * float
    | Timer of { name : string; count : int; total : float }
    | Histogram of {
        name : string;
        count : int;
        sum : float;
        bounds : float array;
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
        (fun g -> Gauge (Gauge.name g, Gauge.value g))
        (by_name Gauge.name (Registry.items Gauge.registry))
    @ List.map
        (fun t ->
          Timer { name = Timer.name t; count = Timer.count t; total = Timer.total t })
        (by_name Timer.name (Registry.items Timer.registry))
    @ List.map
        (fun h ->
          Histogram
            {
              name = Histogram.name h;
              count = Histogram.count h;
              sum = Histogram.sum h;
              bounds = Histogram.bounds h;
              buckets = Histogram.buckets h;
            })
        (by_name Histogram.name (Registry.items Histogram.registry))

  (* %.17g round-trips every finite double through float_of_string *)
  let fstr x = Printf.sprintf "%.17g" x

  let join_floats a = String.concat ";" (Array.to_list (Array.map fstr a))
  let join_ints a =
    String.concat ";" (Array.to_list (Array.map string_of_int a))

  let split_array conv s =
    if s = "" then [||]
    else Array.of_list (List.map conv (String.split_on_char ';' s))

  let to_csv snap =
    let buf = Buffer.create 1024 in
    List.iter
      (fun m ->
        (match m with
        | Counter (n, v) -> Buffer.add_string buf (Printf.sprintf "counter,%s,%d" n v)
        | Gauge (n, v) -> Buffer.add_string buf (Printf.sprintf "gauge,%s,%s" n (fstr v))
        | Timer { name; count; total } ->
          Buffer.add_string buf
            (Printf.sprintf "timer,%s,%d,%s" name count (fstr total))
        | Histogram { name; count; sum; bounds; buckets } ->
          Buffer.add_string buf
            (Printf.sprintf "histogram,%s,%d,%s,%s,%s" name count (fstr sum)
               (join_floats bounds) (join_ints buckets)));
        Buffer.add_char buf '\n')
      snap;
    Buffer.contents buf

  let of_csv text =
    let parse_line line =
      match String.split_on_char ',' line with
      | [ "counter"; n; v ] -> Counter (n, int_of_string v)
      | [ "gauge"; n; v ] -> Gauge (n, float_of_string v)
      | [ "timer"; n; c; t ] ->
        Timer { name = n; count = int_of_string c; total = float_of_string t }
      | [ "histogram"; n; c; s; bs; ks ] ->
        Histogram
          {
            name = n;
            count = int_of_string c;
            sum = float_of_string s;
            bounds = split_array float_of_string bs;
            buckets = split_array int_of_string ks;
          }
      | _ -> failwith ("Obs.Export.of_csv: unrecognised row: " ^ line)
    in
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.map parse_line

  (* ---- JSON ---- *)

  let to_json snap =
    let buf = Buffer.create 1024 in
    let first = ref true in
    let sep () = if !first then first := false else Buffer.add_char buf ',' in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let group kind keep emit =
      sep ();
      add "%S:{" kind;
      let inner_first = ref true in
      List.iter
        (fun m ->
          match keep m with
          | None -> ()
          | Some x ->
            if !inner_first then inner_first := false else Buffer.add_char buf ',';
            emit x)
        snap;
      Buffer.add_char buf '}'
    in
    Buffer.add_char buf '{';
    group "counters"
      (function Counter (n, v) -> Some (n, v) | _ -> None)
      (fun (n, v) -> add "%S:%d" n v);
    group "gauges"
      (function Gauge (n, v) -> Some (n, v) | _ -> None)
      (fun (n, v) -> add "%S:%s" n (fstr v));
    group "timers"
      (function
        | Timer { name; count; total } -> Some (name, count, total)
        | _ -> None)
      (fun (name, count, total) ->
        add "%S:{\"count\":%d,\"total\":%s}" name count (fstr total));
    group "histograms"
      (function
        | Histogram { name; count; sum; bounds; buckets } ->
          Some (name, count, sum, bounds, buckets)
        | _ -> None)
      (fun (name, count, sum, bounds, buckets) ->
        add "%S:{\"count\":%d,\"sum\":%s,\"bounds\":[%s],\"buckets\":[%s]}" name
          count (fstr sum)
          (String.concat "," (Array.to_list (Array.map fstr bounds)))
          (String.concat "," (Array.to_list (Array.map string_of_int buckets))));
    Buffer.add_char buf '}';
    Buffer.contents buf

  (* Minimal JSON reader, sufficient for [to_json] output: objects,
     arrays, escape-free strings, numbers. *)
  type json =
    | Jnum of float
    | Jstr of string
    | Jarr of json list
    | Jobj of (string * json) list

  let parse_json text =
    let pos = ref 0 in
    let len = String.length text in
    let fail msg = failwith ("Obs.Export.of_json: " ^ msg) in
    let peek () = if !pos < len then text.[!pos] else '\000' in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < len && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      skip_ws ();
      if peek () <> c then fail (Printf.sprintf "expected %c at %d" c !pos);
      advance ()
    in
    let parse_string () =
      expect '"';
      let start = !pos in
      while !pos < len && text.[!pos] <> '"' do
        if text.[!pos] = '\\' then fail "escapes unsupported";
        advance ()
      done;
      if !pos >= len then fail "unterminated string";
      let s = String.sub text start (!pos - start) in
      advance ();
      s
    in
    let parse_number () =
      skip_ws ();
      let start = !pos in
      while
        !pos < len
        && (match text.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        advance ()
      done;
      if !pos = start then fail (Printf.sprintf "expected number at %d" start);
      try Jnum (float_of_string (String.sub text start (!pos - start)))
      with _ -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Jobj [] end
        else begin
          let fields = ref [] in
          let rec loop () =
            let k = (skip_ws (); parse_string ()) in
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | ',' -> advance (); loop ()
            | '}' -> advance ()
            | _ -> fail "expected , or } in object"
          in
          loop ();
          Jobj (List.rev !fields)
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Jarr [] end
        else begin
          let items = ref [] in
          let rec loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance (); loop ()
            | ']' -> advance ()
            | _ -> fail "expected , or ] in array"
          in
          loop ();
          Jarr (List.rev !items)
        end
      | '"' -> Jstr (parse_string ())
      | _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> len then fail "trailing input";
    v

  let of_json text =
    let fail msg = failwith ("Obs.Export.of_json: " ^ msg) in
    let obj = function Jobj fields -> fields | _ -> fail "expected object" in
    let num = function Jnum x -> x | _ -> fail "expected number" in
    let int j = int_of_float (num j) in
    let field name fields =
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> fail ("missing field " ^ name)
    in
    let arr conv = function
      | Jarr items -> Array.of_list (List.map conv items)
      | _ -> fail "expected array"
    in
    let top = obj (parse_json text) in
    let section name conv =
      List.map (fun (k, v) -> conv k v) (obj (field name top))
    in
    section "counters" (fun k v -> Counter (k, int v))
    @ section "gauges" (fun k v -> Gauge (k, num v))
    @ section "timers" (fun k v ->
          let f = obj v in
          Timer
            { name = k; count = int (field "count" f); total = num (field "total" f) })
    @ section "histograms" (fun k v ->
          let f = obj v in
          Histogram
            {
              name = k;
              count = int (field "count" f);
              sum = num (field "sum" f);
              bounds = arr num (field "bounds" f);
              buckets = arr int (field "buckets" f);
            })

  (* ---- human-readable table ---- *)

  let pp_table ppf snap =
    let fired = function
      | Counter (_, v) -> v <> 0
      | Gauge (_, v) -> v <> 0.0
      | Timer { count; _ } | Histogram { count; _ } -> count <> 0
    in
    let live = List.filter fired snap in
    let counters = List.filter_map (function Counter (n, v) -> Some (n, v) | _ -> None) live in
    let gauges = List.filter_map (function Gauge (n, v) -> Some (n, v) | _ -> None) live in
    let timers =
      List.filter_map
        (function
          | Timer { name; count; total } -> Some (name, count, total)
          | _ -> None)
        live
    in
    let hists =
      List.filter_map
        (function
          | Histogram { name; count; sum; bounds; buckets } ->
            Some (name, count, sum, bounds, buckets)
          | _ -> None)
        live
    in
    Format.fprintf ppf "== nfv-obs metrics ==@.";
    if live = [] then Format.fprintf ppf "(no instrument fired)@."
    else begin
      if counters <> [] then begin
        Format.fprintf ppf "counters:@.";
        List.iter
          (fun (n, v) -> Format.fprintf ppf "  %-44s %12d@." n v)
          counters
      end;
      if gauges <> [] then begin
        Format.fprintf ppf "gauges:@.";
        List.iter
          (fun (n, v) -> Format.fprintf ppf "  %-44s %12.4f@." n v)
          gauges
      end;
      if timers <> [] then begin
        Format.fprintf ppf "timers:@.";
        List.iter
          (fun (name, count, total) ->
            Format.fprintf ppf "  %-44s %8d calls  total %8.3f s  mean %8.3f ms@."
              name count total
              (1000.0 *. total /. float_of_int (max count 1)))
          timers
      end;
      if hists <> [] then begin
        Format.fprintf ppf "histograms (seconds):@.";
        List.iter
          (fun (name, count, sum, bounds, buckets) ->
            let q = Histogram.bucket_quantile ~bounds buckets in
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
