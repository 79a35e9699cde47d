type spt = {
  source : int;
  dist : float array;
  parent_edge : int array;
  parent : int array;
}

module Obs = Nfv_obs.Obs

(* process-wide Dijkstra work counters; algorithm layers attribute them
   to themselves through [attributed] *)
let c_runs = Obs.Counter.make "dijkstra.runs"
let c_pops = Obs.Counter.make "dijkstra.heap_pops"
let c_scans = Obs.Counter.make "dijkstra.edges_scanned"
let c_relax = Obs.Counter.make "dijkstra.relaxations"

(* the counters are read outside the span, which records only its own
   histogram, so [f] is the one closure a call allocates *)
let attributed span ~dijkstras ~relaxations f =
  let runs0 = Obs.Counter.value c_runs in
  let relax0 = Obs.Counter.value c_relax in
  let result = Obs.Span.run span f in
  Obs.Counter.add dijkstras (Obs.Counter.value c_runs - runs0);
  Obs.Counter.add relaxations (Obs.Counter.value c_relax - relax0);
  result

let weight_vector g ~weight = Array.init (Graph.m g) weight

(* Dijkstra's indexed binary heap: [keys.(i)] is the node in slot [i]
   (slots [0 .. size - 1] live, [size] held by the caller), [prio.(i)]
   its priority and [pos.(v)] its slot, -1 when [v] is not in the heap.
   One per domain, grown to the largest graph the domain has run on, so
   a run allocates nothing for the heap. Its own DLS slot: [Kernels]'
   buffers stay live while KMB's [row]/[path] callbacks run Dijkstras.
   Between runs every [pos] entry is -1: a run drains the heap, and the
   one that raises resets what it leaves behind. *)
type scratch = {
  mutable keys : int array;
  mutable prio : float array;
  mutable pos : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { keys = [||]; prio = [||]; pos = [||] })

let scratch nn =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.pos < nn then begin
    s.keys <- Array.make nn (-1);
    s.prio <- Array.make nn 0.0;
    s.pos <- Array.make nn (-1)
  end;
  s

(* Hole-based sifts: the moving entry [(key, p)] is held in locals while
   each displaced entry moves one level into the hole, starting at slot
   [i], and it is written once at its final slot. They make exactly the
   comparisons classic swap-based sifts make (each against the moving
   entry's priority, or, in [sift_down], the right child against the
   left when the left already won), each a strict [<], so every entry
   ends at the slot a swap-based heap leaves it in and ties break in its
   order. Inlined, the float [p] stays unboxed. *)
let[@inline] sift_up (keys : int array) (prio : float array) pos key p i =
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

let[@inline] sift_down (keys : int array) (prio : float array) pos size key p
    i =
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

(* Insert [v] with priority [p], or lower its priority to [p], which is
   below its heap priority when it is in the heap; returns the new size. *)
let[@inline] push keys prio pos size v p =
  let i = pos.(v) in
  if i < 0 then begin
    sift_up keys prio pos v p size;
    size + 1
  end
  else begin
    sift_up keys prio pos v p i;
    size
  end

(* Remove the root of a heap of [size > 0] entries and return its key:
   the last entry moves into the root's slot and sifts down. *)
let[@inline] pop keys (prio : float array) pos size =
  let u = keys.(0) in
  let last = size - 1 in
  pos.(u) <- -1;
  if last > 0 then sift_down keys prio pos last keys.(last) prio.(last) 0;
  u

let reset keys pos size =
  for i = 0 to size - 1 do
    pos.(keys.(i)) <- -1
  done

(* The one Dijkstra kernel. Weights come from a flat float array, so a
   relaxation makes no closure call and boxes no float; the popped
   priority is always [dist.(u)] (every heap priority change writes the
   same value to [dist]), so a pop reads the key alone.

   There are no settled marks. Weights are non-negative, so pops come in
   nondecreasing priority order: a node [v] settled before [u] has
   [dist.(v) <= du], and [du +. w >= du] for any [w >= 0.0], so the one
   test a scanned slot makes, [du +. w < dist.(v)], never fires for it.
   An [infinity] weight never passes it and a [nan] one never passes
   [w >= 0.0]. A negative weight is the cold branch: it raises only into
   an unsettled node (settled = popped: out of the heap with a finite
   [dist]), and first resets the heap entries it leaves, so the scratch
   stays empty. *)
let dijkstra_vec g ~weights ~source =
  if Array.length weights < Graph.m g then
    invalid_arg "Paths.dijkstra: weight vector shorter than the edge count";
  let nn = Graph.n g in
  let c = Graph.csr g in
  let off = c.Graph.off and nbr = c.Graph.nbr and eid = c.Graph.eid in
  let dist = Array.make nn infinity in
  let parent_edge = Array.make nn (-1) in
  let parent = Array.make nn (-1) in
  let s = scratch nn in
  let keys = s.keys and prio = s.prio and pos = s.pos in
  (* read the switch once: with stats off the hot loop carries a single
     predictable branch per event, with stats on we count locally and
     publish once at the end *)
  let track = !Obs.enabled in
  let pops = ref 0 and scans = ref 0 and relax = ref 0 in
  dist.(source) <- 0.0;
  let size = ref (push keys prio pos 0 source 0.0) in
  while !size > 0 do
    let u = pop keys prio pos !size in
    decr size;
    let du = dist.(u) in
    if track then incr pops;
    for i = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(i) in
      if track then incr scans;
      let e = eid.(i) in
      let w = weights.(e) in
      if w >= 0.0 then begin
        let d' = du +. w in
        if d' < dist.(v) then begin
          if track then incr relax;
          dist.(v) <- d';
          parent_edge.(v) <- e;
          parent.(v) <- u;
          size := push keys prio pos !size v d'
        end
      end
      else if w < 0.0 && not (pos.(v) < 0 && dist.(v) < infinity) then begin
        reset keys pos !size;
        invalid_arg "Paths.dijkstra: negative weight"
      end
    done
  done;
  if track then begin
    Obs.Counter.incr c_runs;
    Obs.Counter.add c_pops !pops;
    Obs.Counter.add c_scans !scans;
    Obs.Counter.add c_relax !relax
  end;
  { source; dist; parent_edge; parent }

let path_edges _g spt target =
  if spt.dist.(target) = infinity then None
  else begin
    let rec walk v acc =
      if v = spt.source then acc
      else walk spt.parent.(v) (spt.parent_edge.(v) :: acc)
    in
    Some (walk target [])
  end

(* the edges from the source down to [v], emitted on the way back out of
   the climb, so in travel order with nothing allocated *)
let rec emit_down (parent : int array) (parent_edge : int array) (source : int) v emit =
  if v <> source then begin
    emit_down parent parent_edge source parent.(v) emit;
    emit parent_edge.(v)
  end

let iter_path spt v emit =
  spt.dist.(v) < infinity
  && begin
    emit_down spt.parent spt.parent_edge spt.source v emit;
    true
  end

module For_testing = struct
  type heap = {
    keys : int array;
    prio : float array;
    pos : int array;
    mutable size : int;
  }

  let heap n =
    {
      keys = Array.make n (-1);
      prio = Array.make n 0.0;
      pos = Array.make n (-1);
      size = 0;
    }

  (* for a key in the heap the guard is the kernel's relaxation test
     ([prio] holds [dist]); [pos.(key)] bounds-checks the key before
     anything is written *)
  let insert_or_decrease h ~key p =
    let i = h.pos.(key) in
    if i < 0 || p < h.prio.(i) then
      h.size <- push h.keys h.prio h.pos h.size key p

  let pop_min h =
    if h.size = 0 then None
    else begin
      let p = h.prio.(0) in
      let key = pop h.keys h.prio h.pos h.size in
      h.size <- h.size - 1;
      Some (key, p)
    end

  let clear h =
    reset h.keys h.pos h.size;
    h.size <- 0

  let state h =
    (Array.sub h.keys 0 h.size, Array.sub h.prio 0 h.size, Array.copy h.pos)
end
