type t = {
  keys : int array;        (* heap array of keys, [0 .. size-1] live *)
  prio : float array;      (* prio.(i) is the priority of keys.(i) *)
  pos : int array;         (* pos.(key) = index in [keys], or -1 *)
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

let capacity h = Array.length h.pos
let size h = h.size
let is_empty h = h.size = 0

let in_range h key = key >= 0 && key < Array.length h.pos
let mem h key = in_range h key && h.pos.(key) >= 0

let priority h key = if mem h key then Some h.prio.(h.pos.(key)) else None

(* Hole-based sifts: the moving entry is held in locals while each
   displaced entry moves one level into the hole, and it is written once
   at its final slot. They make exactly the comparisons the swap-based
   sifts made (each against the moving entry's priority, or, in
   [sift_down], the right child against the left when the left already
   won), so every entry ends at the same index and ties break as before. *)
let sift_up h i =
  let keys = h.keys and prio = h.prio and pos = h.pos in
  let key = keys.(i) and p = prio.(i) in
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if p < prio.(parent) then begin
      let kp = keys.(parent) in
      keys.(!hole) <- kp;
      prio.(!hole) <- prio.(parent);
      pos.(kp) <- !hole;
      hole := parent
    end
    else moving := false
  done;
  keys.(!hole) <- key;
  prio.(!hole) <- p;
  pos.(key) <- !hole

let sift_down h i =
  let keys = h.keys and prio = h.prio and pos = h.pos and size = h.size in
  let key = keys.(i) and p = prio.(i) in
  let hole = ref i and moving = ref true in
  while !moving do
    let l = (2 * !hole) + 1 in
    let r = l + 1 in
    (* [-1] stands for the hole, i.e. the moving entry's priority [p] *)
    let smallest = if l < size && prio.(l) < p then l else -1 in
    let smallest =
      if
        r < size
        && (if smallest < 0 then prio.(r) < p else prio.(r) < prio.(smallest))
      then r
      else smallest
    in
    if smallest < 0 then moving := false
    else begin
      let kc = keys.(smallest) in
      keys.(!hole) <- kc;
      prio.(!hole) <- prio.(smallest);
      pos.(kc) <- !hole;
      hole := smallest
    end
  done;
  keys.(!hole) <- key;
  prio.(!hole) <- p;
  pos.(key) <- !hole

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

(* [insert_or_decrease] with the priority read from [prios] on this side
   of the call, so no float crosses a function boundary (boxed without
   flambda); the operation sequence is identical *)
let insert_or_decrease_from h prios key =
  if not (in_range h key) then
    invalid_arg "Heap.insert_or_decrease: key out of range";
  let i = h.pos.(key) in
  if i < 0 then begin
    let i = h.size in
    h.keys.(i) <- key;
    h.prio.(i) <- prios.(key);
    h.pos.(key) <- i;
    h.size <- i + 1;
    sift_up h i
  end
  else if prios.(key) < h.prio.(i) then begin
    h.prio.(i) <- prios.(key);
    sift_up h i
  end

(* drop the root: the last entry fills its slot and sifts down *)
let remove_root h =
  let last = h.size - 1 in
  h.size <- last;
  h.pos.(h.keys.(0)) <- -1;
  if last > 0 then begin
    h.keys.(0) <- h.keys.(last);
    h.prio.(0) <- h.prio.(last);
    sift_down h 0
  end

let pop_min h =
  if h.size = 0 then None
  else begin
    let key = h.keys.(0) and p = h.prio.(0) in
    remove_root h;
    Some (key, p)
  end

let pop_min_key h =
  if h.size = 0 then -1
  else begin
    let key = h.keys.(0) in
    remove_root h;
    key
  end

let clear h =
  for i = 0 to h.size - 1 do
    h.pos.(h.keys.(i)) <- -1
  done;
  h.size <- 0

module For_testing = struct
  let state h =
    (Array.sub h.keys 0 h.size, Array.sub h.prio 0 h.size, Array.copy h.pos)
end
