(* Fixed-domain fan-out for figure data points. See pool.mli for the
   determinism contract; the scheduling here is deliberately dumb — one
   shared atomic index, workers claim the next point until none are
   left — because points are coarse (each builds a network and solves
   tens to thousands of requests) and result order is fixed by the
   results array, not by completion order. *)

module Obs = Nfv_obs.Obs

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* 0 = auto; written once by the CLI before any figure runs *)
let jobs_setting = ref 1

let set_jobs n =
  if n < 0 then invalid_arg "Pool.set_jobs: negative job count";
  jobs_setting := n

let get_jobs () = if !jobs_setting = 0 then default_jobs () else !jobs_setting

(* ---- deterministic per-point seeds ---- *)

(* the SplitMix64 finaliser, same constants as Topology.Rng *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

let golden_gamma = 0x9E3779B97F4A7C15L

let point_seed ~figure ~index ~seed =
  let h = fnv1a64 figure in
  let h = mix64 (Int64.add h (Int64.mul (Int64.of_int seed) golden_gamma)) in
  let h = mix64 (Int64.add h (Int64.mul (Int64.of_int index) golden_gamma)) in
  (* drop to 62 bits so the value is non-negative on OCaml's native int
     (63-bit); shifting by only 1 can still wrap negative *)
  Int64.to_int (Int64.shift_right_logical h 2)

(* ---- the map itself ---- *)

let map ~figure ~seed n f =
  let run i =
    f ~rng:(Topology.Rng.create (point_seed ~figure ~index:i ~seed)) i
  in
  let j = min (get_jobs ()) n in
  if j <= 1 || not (Domain.is_main_domain ()) then List.init n run
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (run i);
          loop ()
        end
      in
      loop ();
      Obs.Sharding.take ()
    in
    let domains = List.init j (fun _ -> Domain.spawn worker) in
    (* join every worker before re-raising anything: leaked domains
       would keep claiming points, and successful workers' telemetry
       should survive a sibling's failure *)
    let outcomes =
      List.map (fun d -> try Ok (Domain.join d) with e -> Error e) domains
    in
    List.iter
      (function Ok shard -> Obs.Sharding.merge shard | Error _ -> ())
      outcomes;
    List.iter (function Error e -> raise e | Ok _ -> ()) outcomes;
    List.init n (fun i ->
        match results.(i) with Some v -> v | None -> assert false)
  end
