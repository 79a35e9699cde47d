type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = int64 t }
let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (* keep 62 bits so the value fits OCaml's native int; modulo bias is
     negligible for the bounds used here *)
  let x = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  x mod bound

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x /. 9007199254740992.0 *. bound (* 2^53 *)

let float_range t lo hi =
  if hi < lo then invalid_arg "Rng.float_range: empty range";
  lo +. float t (hi -. lo)

let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: empty range";
  lo + int t (hi - lo + 1)

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  let arr = Array.init n Fun.id in
  (* partial Fisher–Yates: only the first k positions are needed *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 k)
