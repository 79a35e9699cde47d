(* Per-domain scratch memory and the kernels behind KMB's closure MST,
   its second MST and its leaf pruning. See kernels.mli. *)

type ints = { mutable ia : int array }
type floats = { mutable fa : float array }

type t = {
  mutable stamp : int array;   (* key -> generation that last wrote it *)
  mutable slot : int array;    (* key -> slot, valid when stamped now *)
  mutable gen : int;
  edges_a : ints;
  weights_a : floats;
  edges_b : ints;
  pairs : ints;
  i0 : ints;
  i1 : ints;
  i2 : ints;
  f0 : floats;
  f1 : floats;
  bottleneck : float array;    (* one entry: the largest key [prim] last picked *)
}

let fresh () =
  let ints () = { ia = [||] } and floats () = { fa = [||] } in
  {
    stamp = [||];
    slot = [||];
    gen = 0;
    edges_a = ints ();
    weights_a = floats ();
    edges_b = ints ();
    pairs = ints ();
    i0 = ints ();
    i1 = ints ();
    i2 = ints ();
    f0 = floats ();
    f1 = floats ();
    bottleneck = [| neg_infinity |];
  }

let key = Domain.DLS.new_key fresh
let get () = Domain.DLS.get key

let grown cur n = max n (2 * cur)

let ints b n =
  if Array.length b.ia < n then b.ia <- Array.make (grown (Array.length b.ia) n) 0;
  b.ia

let floats b n =
  if Array.length b.fa < n then
    b.fa <- Array.make (grown (Array.length b.fa) n) 0.0;
  b.fa

let push b i x =
  let len = Array.length b.ia in
  if i >= len then begin
    let a = Array.make (grown len (i + 1)) 0 in
    Array.blit b.ia 0 a 0 len;
    b.ia <- a
  end;
  b.ia.(i) <- x

let of_list b l =
  let a = ints b (List.length l) in
  List.iteri (fun i x -> a.(i) <- x) l;
  a

let to_list a n =
  let acc = ref [] in
  for i = n - 1 downto 0 do
    acc := a.(i) :: !acc
  done;
  !acc

(* Stamps start at 0 and [gen] only grows, so a freshly grown map and
   every key written under an older generation read as absent. *)
let reset_keys s ~size =
  if Array.length s.stamp < size then begin
    let len = grown (Array.length s.stamp) size in
    s.stamp <- Array.make len 0;
    s.slot <- Array.make len 0
  end;
  s.gen <- s.gen + 1

let find s k = if s.stamp.(k) = s.gen then s.slot.(k) else -1

let bind s k v =
  s.stamp.(k) <- s.gen;
  s.slot.(k) <- v

(* stable sort of [order.(0 .. k-1)] by [ws]: insertion-sorted runs, then
   bottom-up merges that take from the left run on ties. Any stable sort
   under [Float.compare] gives the same order as [Array.stable_sort]. *)
let run = 16

let stable_sort_by ws order tmp k =
  let lo = ref 0 in
  while !lo < k do
    let hi = min k (!lo + run) in
    for j = !lo + 1 to hi - 1 do
      let x = order.(j) in
      let p = ref (j - 1) in
      while !p >= !lo && Float.compare ws.(order.(!p)) ws.(x) > 0 do
        order.(!p + 1) <- order.(!p);
        decr p
      done;
      order.(!p + 1) <- x
    done;
    lo := hi
  done;
  let src = ref order and dst = ref tmp and width = ref run in
  while !width < k do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < k do
      let mid = min k (!lo + !width) and hi = min k (!lo + (2 * !width)) in
      let a = ref !lo and b = ref mid in
      for o = !lo to hi - 1 do
        if !a < mid && (!b >= hi || Float.compare ws.(s.(!a)) ws.(s.(!b)) <= 0)
        then begin
          d.(o) <- s.(!a);
          incr a
        end
        else begin
          d.(o) <- s.(!b);
          incr b
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  !src

(* Prim on the metric closure, one row of distances per tree point.
   [rest.(0 .. r-1)] holds the indices of the points not yet in the
   tree, in increasing order, so each row asks for exactly the pairs, in
   exactly the order, that a per-pair scan of the points would. The
   pairs go to [s.pairs], which no [row] callback touches, and the
   largest picked key to [s.bottleneck.(0)]. *)
let prim ~points ~row =
  let t = Array.length points in
  let s = get () in
  s.bottleneck.(0) <- neg_infinity;
  if t = 0 then 0
  else begin
    let rest = ints s.i0 t and dst = ints s.i1 t and from = ints s.i2 t in
    let best = floats s.f0 t and buf = floats s.f1 t in
    let r = ref (t - 1) in
    for i = 0 to t - 2 do
      rest.(i) <- i + 1;
      dst.(i) <- points.(i + 1)
    done;
    if t > 1 then row points.(0) dst (t - 1) buf;
    for i = 0 to t - 2 do
      best.(i + 1) <- buf.(i);
      from.(i + 1) <- 0
    done;
    let picked = ref 0 in
    let ok = ref true in
    while !ok && !r > 0 do
      (* the first point of least [best], as a strict [<] scan picks *)
      let p = ref 0 in
      for q = 1 to !r - 1 do
        if best.(rest.(q)) < best.(rest.(!p)) then p := q
      done;
      let j = rest.(!p) in
      if best.(j) = infinity then ok := false
      else begin
        if best.(j) > s.bottleneck.(0) then s.bottleneck.(0) <- best.(j);
        push s.pairs (2 * !picked) points.(from.(j));
        push s.pairs ((2 * !picked) + 1) points.(j);
        incr picked;
        Array.blit rest (!p + 1) rest !p (!r - !p - 1);
        decr r;
        if !r > 0 then begin
          for q = 0 to !r - 1 do
            dst.(q) <- points.(rest.(q))
          done;
          row points.(j) dst !r buf;
          for q = 0 to !r - 1 do
            let k = rest.(q) in
            if buf.(q) < best.(k) then begin
              best.(k) <- buf.(q);
              from.(k) <- j
            end
          done
        end
      end
    done;
    if !ok then !picked else -1
  end

let rec root parent x =
  let p = parent.(x) in
  if p = x then x
  else begin
    let gp = parent.(p) in
    parent.(x) <- gp;
    root parent gp
  end

(* the slot of node [x], numbered on first sight; a new slot [v] gets
   [a.(v) = v], its own union-find root *)
let node_slot s a count x =
  let v = find s x in
  if v >= 0 then v
  else begin
    let v = !count in
    bind s x v;
    a.(v) <- v;
    incr count;
    v
  end

(* edge [m + i] of [g] plus a star is spoke [i], (n, spokes.(i)); keys
   run up to n *)
let[@inline] end_u g m e = if e < m then Graph.edge_u g e else Graph.n g
let[@inline] end_v g spokes m e = if e < m then Graph.edge_v g e else spokes.(e - m)

let kruskal g spokes ws src n dst =
  let s = get () in
  let order = ints s.i0 n in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if ws.(i) <> infinity then begin
      order.(!k) <- i;
      incr k
    end
  done;
  let k = !k in
  let sorted = stable_sort_by ws order (ints s.i1 k) k in
  reset_keys s ~size:(Graph.n g + 1);
  let m = Graph.m g in
  let parent = ints s.i2 (2 * k) in
  let count = ref 0 in
  let picked = ref 0 in
  for r = 0 to k - 1 do
    let e = src.(sorted.(r)) in
    let a = root parent (node_slot s parent count (end_u g m e)) in
    let b = root parent (node_slot s parent count (end_v g spokes m e)) in
    if a <> b then begin
      parent.(a) <- b;
      push dst !picked e;
      incr picked
    end
  done;
  !picked

(* Leaf-stripping is confluent: an edge hanging off a non-terminal leaf
   stays removable until it is removed, so every sweep order reaches the
   same fixpoint, and the survivors are read back in input order. *)
let prune g spokes ~terminals src n =
  let s = get () in
  reset_keys s ~size:(Graph.n g + 1);
  let m = Graph.m g in
  let degree = ints s.i0 (2 * n) in
  let count = ref 0 in
  let su = ints s.i1 n and sv = ints s.i2 n in
  for i = 0 to n - 1 do
    let e = src.(i) in
    su.(i) <- node_slot s degree count (end_u g m e);
    sv.(i) <- node_slot s degree count (end_v g spokes m e)
  done;
  Array.fill degree 0 !count 0;
  for i = 0 to n - 1 do
    degree.(su.(i)) <- degree.(su.(i)) + 1;
    degree.(sv.(i)) <- degree.(sv.(i)) + 1
  done;
  (* a real degree is at most n; a terminal's is offset by n + 1, so it
     never reads as a removable leaf. A removed edge has su = -1. *)
  for i = 0 to Array.length terminals - 1 do
    let v = find s terminals.(i) in
    if v >= 0 && degree.(v) <= n then degree.(v) <- degree.(v) + n + 1
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let a = su.(i) in
      if a >= 0 then begin
        let b = sv.(i) in
        if degree.(a) = 1 || degree.(b) = 1 then begin
          su.(i) <- -1;
          degree.(a) <- degree.(a) - 1;
          degree.(b) <- degree.(b) - 1;
          changed := true
        end
      end
    done
  done;
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if su.(i) >= 0 then acc := src.(i) :: !acc
  done;
  !acc
