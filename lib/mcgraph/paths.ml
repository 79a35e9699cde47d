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

(* Dijkstra's heap and settled marks, one per domain and grown to the
   largest graph the domain has run on. Its own DLS slot: [Kernels]'
   buffers stay live while KMB's [row]/[path] callbacks run Dijkstras. *)
type scratch = {
  mutable heap : Heap.t;
  mutable settled : int array;   (* node -> generation that settled it *)
  mutable gen : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { heap = Heap.create 0; settled = [||]; gen = 0 })

(* Stamps start at 0 and [gen] only grows, so a freshly grown array and
   every mark of an earlier run read as unsettled. *)
let scratch nn =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.settled < nn then begin
    s.heap <- Heap.create nn;
    s.settled <- Array.make nn 0
  end
  else
    (* a run cut short by a negative weight leaves entries behind *)
    Heap.clear s.heap;
  s.gen <- s.gen + 1;
  s

(* The one Dijkstra kernel. Weights come from a flat float array, so a
   relaxation makes no closure call and boxes no float; the popped
   priority is always [dist.(u)] (every heap priority change writes the
   same value to [dist]), so the pop returns the key alone. An empty
   reused heap sees the operation sequence a fresh one would, so ties
   break as they always did. *)
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
  let heap = s.heap and settled = s.settled and gen = s.gen in
  (* read the switch once: with stats off the hot loop carries a single
     predictable branch per event, with stats on we count locally and
     publish once at the end *)
  let track = !Obs.enabled in
  let pops = ref 0 and scans = ref 0 and relax = ref 0 in
  dist.(source) <- 0.0;
  Heap.insert_or_decrease_from heap dist source;
  let next = ref (Heap.pop_min_key heap) in
  while !next >= 0 do
    let u = !next in
    let du = dist.(u) in
    if track then incr pops;
    settled.(u) <- gen;
    for i = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(i) in
      if track then incr scans;
      if settled.(v) <> gen then begin
        let e = eid.(i) in
        let w = weights.(e) in
        if w < 0.0 then invalid_arg "Paths.dijkstra: negative weight";
        if w < infinity then begin
          let d' = du +. w in
          if d' < dist.(v) then begin
            if track then incr relax;
            dist.(v) <- d';
            parent_edge.(v) <- e;
            parent.(v) <- u;
            Heap.insert_or_decrease_from heap dist v
          end
        end
      end
    done;
    next := Heap.pop_min_key heap
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
let rec emit_down parent parent_edge source v emit =
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
