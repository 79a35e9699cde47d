type t = {
  parent : int array;
  rank : int array;
  set_size : int array;
  mutable sets : int;
}

let create n =
  if n < 0 then invalid_arg "Union_find.create: negative size";
  {
    parent = Array.init n (fun i -> i);
    rank = Array.make n 0;
    set_size = Array.make n 1;
    sets = n;
  }

let reset t =
  let n = Array.length t.parent in
  for i = 0 to n - 1 do
    t.parent.(i) <- i
  done;
  Array.fill t.rank 0 n 0;
  Array.fill t.set_size 0 n 1;
  t.sets <- n

let rec find t x =
  let p = t.parent.(x) in
  if p = x then x
  else begin
    let root = find t p in
    t.parent.(x) <- root;
    root
  end

let same t a b = find t a = find t b

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    let ra, rb =
      if t.rank.(ra) < t.rank.(rb) then (rb, ra) else (ra, rb)
    in
    t.parent.(rb) <- ra;
    if t.rank.(ra) = t.rank.(rb) then t.rank.(ra) <- t.rank.(ra) + 1;
    t.set_size.(ra) <- t.set_size.(ra) + t.set_size.(rb);
    t.sets <- t.sets - 1;
    true
  end

let count t = t.sets
let size t x = t.set_size.(find t x)
