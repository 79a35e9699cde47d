(* The indexed binary heap as it stood before the hole-based sifts:
   every sift step swaps two slots. The heap inside [Paths.dijkstra_vec]
   must make the same moves — same pops, same slot of every key — so
   that Dijkstra's tie order, and with it every tree, is unchanged. Also
   the heap of [Prim]. *)
type t = {
  keys : int array;
  prio : float array;
  pos : int array;
  mutable size : int;
}

let create capacity =
  if capacity < 0 then invalid_arg "Heap.create: negative capacity";
  {
    keys = Array.make (max capacity 1) (-1);
    prio = Array.make (max capacity 1) 0.0;
    pos = Array.make (max capacity 1) (-1);
    size = 0;
  }

let in_range h key = key >= 0 && key < Array.length h.pos
let mem h key = in_range h key && h.pos.(key) >= 0

let priority h key = if mem h key then Some h.prio.(h.pos.(key)) else None

let swap h i j =
  let ki = h.keys.(i) and kj = h.keys.(j) in
  let pi = h.prio.(i) and pj = h.prio.(j) in
  h.keys.(i) <- kj;
  h.keys.(j) <- ki;
  h.prio.(i) <- pj;
  h.prio.(j) <- pi;
  h.pos.(kj) <- i;
  h.pos.(ki) <- j

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.prio.(i) < h.prio.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.prio.(l) < h.prio.(!smallest) then smallest := l;
  if r < h.size && h.prio.(r) < h.prio.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let insert h ~key p =
  if not (in_range h key) then invalid_arg "Heap.insert: key out of range";
  if h.pos.(key) >= 0 then invalid_arg "Heap.insert: key already present";
  let i = h.size in
  h.keys.(i) <- key;
  h.prio.(i) <- p;
  h.pos.(key) <- i;
  h.size <- i + 1;
  sift_up h i

let decrease h ~key p =
  if not (mem h key) then invalid_arg "Heap.decrease: key absent";
  let i = h.pos.(key) in
  if p > h.prio.(i) then invalid_arg "Heap.decrease: priority increase";
  h.prio.(i) <- p;
  sift_up h i

let insert_or_decrease h ~key p =
  if not (in_range h key) then
    invalid_arg "Heap.insert_or_decrease: key out of range";
  let i = h.pos.(key) in
  if i < 0 then insert h ~key p else if p < h.prio.(i) then decrease h ~key p

let insert_or_decrease_from h prios key =
  if not (in_range h key) then
    invalid_arg "Heap.insert_or_decrease: key out of range";
  insert_or_decrease h ~key prios.(key)

let pop_min h =
  if h.size = 0 then None
  else begin
    let key = h.keys.(0) and p = h.prio.(0) in
    let last = h.size - 1 in
    swap h 0 last;
    h.size <- last;
    h.pos.(key) <- -1;
    if last > 0 then sift_down h 0;
    Some (key, p)
  end

let pop_min_key h = match pop_min h with None -> -1 | Some (key, _) -> key

let clear h =
  for i = 0 to h.size - 1 do
    h.pos.(h.keys.(i)) <- -1
  done;
  h.size <- 0

(* the shape of [Mcgraph.Paths.For_testing.state] *)
let state h =
  (Array.sub h.keys 0 h.size, Array.sub h.prio 0 h.size, Array.copy h.pos)
