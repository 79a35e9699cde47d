(* The four committed workloads. Each is built from the seed with public
   constructors only, and each rep returns what the benchmark measured
   from outside the library: wall time on the monotonic clock, per-op
   decision times, an outcome fingerprint and the checks it ran. *)

module Nm = Nfv_multicast
module Dyn = Nm.Dynamic
module Adm = Nm.Admission
module Pt = Nm.Pseudo_tree
module Net = Sdn.Network
module Fault = Sdn.Fault
module Rng = Topology.Rng
module Exp = Experiments.Exp_common

(* Monotonic nanoseconds since start-up as a float: exact for over a
   hundred days, and no Int64 boxing inside the measured loops. *)
let origin = Monotonic_clock.now ()
let[@inline] tick () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin)

(* A growable float buffer, preallocated before the timed region so that
   recording a sample allocates nothing. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create cap = { data = Array.make (max 16 cap) 0.0; len = 0 }

  let[@inline] add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Intervals between consecutive observed records of one kind. An
   interval is clean when the record before it did not open a
   restoration pass, whose tail would otherwise be charged to it. *)
type interval = { n : int; clean : int; clean_ns : float }

let no_interval = { n = 0; clean = 0; clean_ns = 0.0 }

type rep = {
  ops : int;
  failed : int;  (** ops that raised or produced an output the checks reject *)
  wall_s : float;  (** timed region, less the benchmark's own bookkeeping *)
  alloc_words : float;  (** minor + major − promoted, less bookkeeping *)
  minor_gcs : int;
  major_gcs : int;
  promoted_words : float;
  decisions : float array;  (** µs *)
  recoveries : float array;  (** µs; empty without faults *)
  arrive : interval;
  depart : interval;
  strike : interval;
  counts : (string * int) list;
  exact : (string * float) list;
  digest : int;
  work : (string * int) list;  (** work counts the fingerprint leaves out *)
  problems : string list;
}

(* All-float record: OCaml stores its fields unboxed, so the callbacks
   below update it without allocating. *)
type acc = {
  mutable last_out : float;  (** ns when the benchmark last returned control *)
  mutable overhead : float;  (** ns spent in the benchmark's bookkeeping *)
  mutable overhead_words : float;  (** words it allocated meanwhile *)
  mutable strike_start : float;
  mutable strike_overhead : float;
  mutable arrive_ns : float;
  mutable depart_ns : float;
  mutable strike_ns : float;
  mutable cost_sum : float;
}

let new_acc () =
  {
    last_out = 0.0;
    overhead = 0.0;
    overhead_words = 0.0;
    strike_start = 0.0;
    strike_overhead = 0.0;
    arrive_ns = 0.0;
    depart_ns = 0.0;
    strike_ns = 0.0;
    cost_sum = 0.0;
  }

(* FNV-1a over native ints: the digest of a decision sequence *)
let fnv_basis = 0x4bf29ce484222325
let[@inline] mix h x = (h lxor x) * 0x100000001b3

let mix_tree h (t : Pt.t) =
  let h = List.fold_left mix h t.Pt.servers in
  List.fold_left (fun h (e, m) -> mix (mix h e) m) h t.Pt.edge_uses

(* The first few check failures, with a total count. *)
module Problems = struct
  type t = { mutable msgs : string list; mutable count : int }

  let create () = { msgs = []; count = 0 }

  let add t msg =
    if t.count < 5 then t.msgs <- msg :: t.msgs;
    t.count <- t.count + 1

  let to_list t =
    List.rev t.msgs
    @ if t.count > 5 then [ Printf.sprintf "... %d more" (t.count - 5) ] else []
end

let check_tree problems net id (tree : Pt.t) =
  if tree.Pt.request.Sdn.Request.id <> id then begin
    Problems.add problems
      (Printf.sprintf "record %d carries request %d's tree" id
         tree.Pt.request.Sdn.Request.id);
    false
  end
  else
    match Pt.validate net tree with
    | Ok () -> true
    | Error e ->
      Problems.add problems (Printf.sprintf "request %d: %s" id e);
      false

let close_enough ~cap a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 cap

(* Conservation: every residual equals capacity minus what [held] still
   allocates ([held = []] once every session departed and every fault
   healed). *)
let check_ledger problems net held =
  let links = Array.make (Net.m net) 0.0 in
  let nodes = Hashtbl.create 16 in
  List.iter
    (fun (t : Pt.t) ->
      let a = Pt.allocation t in
      List.iter (fun (e, x) -> links.(e) <- links.(e) +. x) a.Net.links;
      List.iter
        (fun (v, x) ->
          Hashtbl.replace nodes v (x +. Option.value ~default:0.0 (Hashtbl.find_opt nodes v)))
        a.Net.nodes)
    held;
  let ok = ref true in
  Array.iteri
    (fun e used ->
      let cap = Net.link_capacity net e in
      if not (close_enough ~cap (cap -. Net.link_residual net e) used) then begin
        ok := false;
        Problems.add problems
          (Printf.sprintf "link %d: capacity %g, residual %g, held %g" e cap
             (Net.link_residual net e) used)
      end)
    links;
  List.iter
    (fun v ->
      let cap = Net.server_capacity net v in
      let used = Option.value ~default:0.0 (Hashtbl.find_opt nodes v) in
      if not (close_enough ~cap (cap -. Net.server_residual net v) used) then begin
        ok := false;
        Problems.add problems
          (Printf.sprintf "server %d: capacity %g, residual %g, held %g" v cap
             (Net.server_residual net v) used)
      end)
    (Net.servers net);
  !ok

let counts ~arrivals ~admitted ?(evicted = 0) ?(repaired = 0) ?(dropped = 0)
    ?(restored = 0) () =
  [
    ("arrivals", arrivals);
    ("admitted", admitted);
    ("rejected", arrivals - admitted);
    ("evicted", evicted);
    ("repaired", repaired);
    ("dropped", dropped);
    ("restored", restored);
  ]

let scaled scale n = max 1 (int_of_float (Float.round (scale *. float_of_int n)))

let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b

let fingerprint r =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counts
    @ List.map
        (fun (k, x) -> Printf.sprintf "%s=%Lx" k (Int64.bits_of_float x))
        r.exact
    @ [ Printf.sprintf "digest=%x" r.digest ])

(* Timed-region bracket: wall clock and GC counters. *)
type region = {
  t0 : float;
  gc0 : Gc.stat;
  mutable t1 : float;
  mutable gc1 : Gc.stat;
}

let open_region () =
  let gc0 = Gc.quick_stat () in
  { t0 = tick (); gc0; t1 = 0.0; gc1 = gc0 }

let end_region r =
  r.t1 <- tick ();
  r.gc1 <- Gc.quick_stat ()

(* [wall_ns] defaults to the region less the bookkeeping in [acc] *)
let close_region ?wall_ns r (acc : acc) ~ops ~failed ~decisions
    ?(recoveries = [||]) ?(arrive = no_interval) ?(depart = no_interval)
    ?(strike = no_interval) ~counts ~exact ~digest ?(work = []) problems =
  let wall_ns =
    Option.value wall_ns ~default:(r.t1 -. r.t0 -. acc.overhead)
  in
  let gc1 = r.gc1 in
  let d f = f gc1 -. f r.gc0 in
  {
    ops;
    failed;
    wall_s = wall_ns *. 1e-9;
    alloc_words =
      d (fun s -> s.Gc.minor_words)
      +. d (fun s -> s.Gc.major_words)
      -. d (fun s -> s.Gc.promoted_words)
      -. acc.overhead_words;
    minor_gcs = gc1.Gc.minor_collections - r.gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - r.gc0.Gc.major_collections;
    promoted_words = d (fun s -> s.Gc.promoted_words);
    decisions;
    recoveries;
    arrive;
    depart;
    strike;
    counts;
    exact;
    digest;
    work;
    problems = Problems.to_list problems;
  }

(* --- churn: Dynamic.run under Online_CP, optionally with SRLG cuts --- *)

let tier_code = function
  | Nm.Repair.Patched -> 1
  | Nm.Repair.Migrated -> 2
  | Nm.Repair.Readmitted -> 3

let churn_run net trace timeline =
  let count = List.length trace in
  let problems = Problems.create () in
  let acc = new_acc () in
  let decisions = Samples.create count in
  (* a cut can evict a session more than once: room for two per arrival *)
  let recoveries = Samples.create (2 * count) in
  let digest = ref fnv_basis and ops = ref 0 and failed = ref 0 in
  let arrive_n = ref 0 and arrive_clean = ref 0 in
  let depart_n = ref 0 and depart_clean = ref 0 in
  let strike_n = ref 0 and strike_clean = ref 0 in
  (* the first record's interval also covers Dynamic.run's queue set-up *)
  let dirty = ref true and strike_dirty = ref true in
  let check id tree = if not (check_tree problems net id tree) then incr failed in
  let observe _ (ev : Dyn.happened) =
    let t_in = tick () and w_in = Gc.minor_words () in
    let gap = t_in -. acc.last_out in
    let recovery () =
      if not !strike_dirty then
        Samples.add recoveries
          ((t_in -. acc.strike_start -. (acc.overhead -. acc.strike_overhead))
          *. 1e-3)
    in
    (match ev with
    | Dyn.Arrived { id; tree } -> (
      incr ops;
      incr arrive_n;
      if not !dirty then begin
        incr arrive_clean;
        acc.arrive_ns <- acc.arrive_ns +. gap;
        Samples.add decisions (gap *. 1e-3)
      end;
      match tree with
      | None -> digest := mix (mix (mix !digest 1) id) 0
      | Some t ->
        digest := mix_tree (mix (mix (mix !digest 1) id) 1) t;
        check id t)
    | Dyn.Departed { id; released } ->
      incr ops;
      incr depart_n;
      if not !dirty then begin
        incr depart_clean;
        acc.depart_ns <- acc.depart_ns +. gap
      end;
      digest := mix (mix (mix !digest 2) id) (Bool.to_int released)
    | Dyn.Fault_fired { event = _; victims } ->
      incr ops;
      incr strike_n;
      if not !dirty then begin
        incr strike_clean;
        acc.strike_ns <- acc.strike_ns +. gap
      end;
      acc.strike_start <- acc.last_out;
      acc.strike_overhead <- acc.overhead;
      strike_dirty := !dirty;
      digest := List.fold_left mix (mix !digest 3) victims
    | Dyn.Repaired { id; tier; tree } ->
      recovery ();
      digest := mix_tree (mix (mix (mix !digest 4) id) (tier_code tier)) tree;
      check id tree
    | Dyn.Dropped { id } ->
      recovery ();
      digest := mix (mix !digest 5) id
    | Dyn.Restored { id; tree } ->
      digest := mix_tree (mix (mix !digest 6) id) tree;
      check id tree);
    dirty :=
      (match ev with
      | Dyn.Fault_fired { event = Fault.Link_up _ | Fault.Server_up _; _ }
      | Dyn.Restored _ ->
        true
      | _ -> false);
    acc.overhead_words <- acc.overhead_words +. (Gc.minor_words () -. w_in);
    let t_out = tick () in
    acc.overhead <- acc.overhead +. (t_out -. t_in);
    acc.last_out <- t_out
  in
  let faults = Option.map (fun tl -> Dyn.make_faults tl) timeline in
  let region = open_region () in
  acc.last_out <- region.t0;
  let stats =
    match Dyn.run ?faults ~observe net Adm.Online_cp trace with
    | s -> Some s
    | exception e ->
      Problems.add problems ("Dynamic.run raised " ^ Printexc.to_string e);
      failed := !failed + max 1 (count - !arrive_n);
      None
  in
  end_region region;
  let c =
    match stats with
    | None -> counts ~arrivals:count ~admitted:0 ()
    | Some s ->
      let expect what ok =
        if not ok then begin
          incr failed;
          Problems.add problems ("stats disagree: " ^ what)
        end
      in
      expect "arrivals" (s.Dyn.arrivals = count && !arrive_n = count);
      expect "admitted + rejected" (s.Dyn.admitted + s.Dyn.rejected = count);
      expect "evicted = repaired + dropped"
        (s.Dyn.evicted = s.Dyn.repaired + s.Dyn.dropped);
      expect "one departure per admission" (!depart_n = s.Dyn.admitted);
      (* every session departed and every cut healed: all capacity back *)
      if not (check_ledger problems net []) then incr failed;
      counts ~arrivals:s.Dyn.arrivals ~admitted:s.Dyn.admitted
        ~evicted:s.Dyn.evicted ~repaired:s.Dyn.repaired ~dropped:s.Dyn.dropped
        ~restored:s.Dyn.restored ()
  in
  let get k = List.assoc k c in
  let exact =
    ("accept_ratio", ratio (get "admitted") (get "arrivals"))
    ::
    (if timeline = None then []
     else
       [
         ("survival", ratio (get "repaired") (get "evicted"));
         ("restored_frac", ratio (get "restored") (get "dropped"));
       ])
  in
  let interval n clean ns = { n; clean; clean_ns = ns } in
  close_region region acc ~ops:!ops ~failed:!failed
    ~decisions:(Samples.to_array decisions)
    ~recoveries:(Samples.to_array recoveries)
    ~arrive:(interval !arrive_n !arrive_clean acc.arrive_ns)
    ~depart:(interval !depart_n !depart_clean acc.depart_ns)
    ~strike:(interval !strike_n !strike_clean acc.strike_ns)
    ~counts:c ~exact ~digest:!digest problems

(* Each workload's substrate — topology, resources, server placement and
   SRLG partition — is fixed, drawn from this constant; [--seed] draws
   only the traffic and the fault timeline. Runs on different seeds then
   measure one network, so their spread is the traffic's alone. *)
let substrate () = Rng.create 2017

let churn ~make_net ~count ~faulty ~seed ~scale =
  let count = scaled scale count in
  let net_rng = substrate () in
  let net = make_net net_rng in
  let rng = Rng.create seed in
  let trace = Dyn.poisson_trace rng net ~rate:1.0 ~mean_holding:150.0 ~count in
  let timeline =
    if not faulty then None
    else
      let horizon =
        List.fold_left (fun h (a : Dyn.arrival) -> Float.max h a.Dyn.at) 1.0 trace
      in
      let groups = Fault.srlg_partition ~groups:8 ~rng:net_rng net in
      Some
        (Fault.srlg_timeline ~heal_after:50.0 ~rng ~horizon
           ~events:(count / 50) groups)
  in
  fun () -> churn_run net trace timeline

(* --- static: the paper's online model, no departures --- *)

let static_run net rounds =
  let total = Array.fold_left (fun n r -> n + Array.length r) 0 rounds in
  let problems = Problems.create () in
  let acc = new_acc () in
  let decisions = Samples.create total in
  let digest = ref fnv_basis and admitted = ref 0 and failed = ref 0 in
  let region = open_region () in
  let wall = ref 0.0 in
  Array.iter
    (fun requests ->
      let held = ref [] in
      let round_start = tick () and overhead0 = acc.overhead in
      Net.reset net;
      let window = Nm.Sp_window.create net in
      Array.iter
        (fun (r : Sdn.Request.t) ->
          let t_a = tick () in
          let outcome =
            try Ok (Adm.admit_tree ~window net Adm.Online_cp r) with e -> Error e
          in
          let t_b = tick () and w_in = Gc.minor_words () in
          Samples.add decisions ((t_b -. t_a) *. 1e-3);
          (match outcome with
          | Ok (Ok tree) ->
            incr admitted;
            held := tree :: !held;
            digest := mix_tree (mix (mix !digest r.Sdn.Request.id) 1) tree
          | Ok (Error _) -> digest := mix (mix !digest r.Sdn.Request.id) 0
          | Error e ->
            incr failed;
            Problems.add problems
              (Printf.sprintf "request %d raised %s" r.Sdn.Request.id
                 (Printexc.to_string e)));
          acc.overhead_words <- acc.overhead_words +. (Gc.minor_words () -. w_in);
          acc.overhead <- acc.overhead +. (tick () -. t_b))
        requests;
      wall := !wall +. (tick () -. round_start -. (acc.overhead -. overhead0));
      (* checks run outside the timed rounds *)
      let t_check = tick () and w_check = Gc.minor_words () in
      List.iter
        (fun (t : Pt.t) ->
          if not (check_tree problems net t.Pt.request.Sdn.Request.id t) then
            incr failed)
        !held;
      if not (check_ledger problems net !held) then incr failed;
      acc.overhead_words <- acc.overhead_words +. (Gc.minor_words () -. w_check);
      acc.overhead <- acc.overhead +. (tick () -. t_check))
    rounds;
  end_region region;
  close_region ~wall_ns:!wall region acc ~ops:total ~failed:!failed
    ~decisions:(Samples.to_array decisions)
    ~counts:(counts ~arrivals:total ~admitted:!admitted ())
    ~exact:[ ("accept_ratio", ratio !admitted total) ]
    ~digest:!digest problems

let static ~rounds ~per_round ~seed ~scale =
  let net = Exp.as1755_network (substrate ()) in
  let rng = Rng.create seed in
  let count = scaled scale per_round in
  let rounds =
    Array.init rounds (fun _ ->
        Array.of_list (Workload.Gen.sequence rng net ~count))
  in
  fun () -> static_run net rounds

(* --- appro: the offline 2K-approximation, one solve per request --- *)

let appro_run net requests =
  let total = Array.length requests in
  let problems = Problems.create () in
  let acc = new_acc () in
  let decisions = Samples.create total in
  let digest = ref fnv_basis and solved = ref 0 and failed = ref 0 in
  let combinations = ref 0 in
  let region = open_region () in
  Array.iter
    (fun (r : Sdn.Request.t) ->
      let id = r.Sdn.Request.id in
      let t_a = tick () in
      let outcome = try Ok (Nm.Appro_multi.solve ~k:3 net r) with e -> Error e in
      let t_b = tick () and w_in = Gc.minor_words () in
      Samples.add decisions ((t_b -. t_a) *. 1e-3);
      (match outcome with
      | Ok (Ok res) ->
        incr solved;
        acc.cost_sum <- acc.cost_sum +. res.Nm.Appro_multi.cost;
        combinations := !combinations + res.Nm.Appro_multi.combinations;
        digest :=
          mix_tree
            (mix
               (List.fold_left mix (mix (mix !digest id) 1) res.Nm.Appro_multi.subset)
               (Int64.to_int (Int64.bits_of_float res.Nm.Appro_multi.cost)))
            res.Nm.Appro_multi.tree;
        let cost = res.Nm.Appro_multi.cost in
        if not (check_tree problems net id res.Nm.Appro_multi.tree) then incr failed
        else if
          not
            (close_enough ~cap:cost (Pt.cost net res.Nm.Appro_multi.tree) cost
            && res.Nm.Appro_multi.aux_cost <= cost *. (1.0 +. 1e-9))
        then begin
          incr failed;
          Problems.add problems (Printf.sprintf "request %d: inconsistent cost" id)
        end
      | Ok (Error _) -> digest := mix (mix !digest id) 0
      | Error e ->
        incr failed;
        Problems.add problems
          (Printf.sprintf "request %d raised %s" id (Printexc.to_string e)));
      acc.overhead_words <- acc.overhead_words +. (Gc.minor_words () -. w_in);
      acc.overhead <- acc.overhead +. (tick () -. t_b))
    requests;
  end_region region;
  close_region region acc ~ops:total ~failed:!failed
    ~decisions:(Samples.to_array decisions)
    ~counts:(counts ~arrivals:total ~admitted:!solved ())
    ~exact:
      [
        ("accept_ratio", ratio !solved total);
        ( "mean_cost",
          if !solved = 0 then 0.0 else acc.cost_sum /. float_of_int !solved );
      ]
    ~digest:!digest
    ~work:[ ("combinations", !combinations) ]
    problems

let appro ~count ~seed ~scale =
  let net = Exp.network (substrate ()) ~n:150 in
  let rng = Rng.create seed in
  let spec = { Workload.Gen.default_spec with dmax_ratio = Some 0.1 } in
  let count = scaled scale count in
  let requests = Array.of_list (Workload.Gen.sequence ~spec rng net ~count) in
  fun () -> appro_run net requests

type t = {
  name : string;
  prepare : seed:int -> scale:float -> unit -> rep;
      (** build the inputs (the timed set-up) and return one rep's run *)
}

(* sizes give reps of about two seconds on a 2.1 GHz core *)
let all =
  [
    {
      name = "geant-srlg-churn";
      prepare = churn ~make_net:Exp.geant_network ~count:7500 ~faulty:true;
    };
    {
      name = "as1755-churn";
      prepare = churn ~make_net:Exp.as1755_network ~count:5000 ~faulty:false;
    };
    { name = "as1755-static"; prepare = static ~rounds:4 ~per_round:2000 };
    { name = "waxman150-appro"; prepare = appro ~count:200 };
  ]
