(* Reference shortest paths the tests compare [Paths.dijkstra_vec] and
   [Sp_engine] against: the closure-form Dijkstra (one [weight] call per
   edge id, then the kernel), the Dijkstra the kernel replaced (on the
   swap-based [Ref_heap]), Bellman-Ford, and eager all-pairs tables (one
   Dijkstra per node, O(n^2) space). *)

open Mcgraph
module G = Graph

let dijkstra g ~weight ~source =
  Paths.dijkstra_vec g ~weights:(Paths.weight_vector g ~weight) ~source

(* Dijkstra as it stood before the weight-vector kernel: the closure is
   evaluated on every scanned edge, the pop returns the popped priority
   and settled nodes are skipped by a mark. The kernel must reproduce it
   bit for bit; it runs on the swap-based reference heap, so the
   comparison also pins the tie order the kernel inherited. *)
let swap_heap_dijkstra g ~weight ~source =
  let module H = Ref_heap in
  let nn = G.n g in
  let dist = Array.make nn infinity in
  let parent_edge = Array.make nn (-1) in
  let parent = Array.make nn (-1) in
  let heap = H.create nn in
  let settled = Array.make nn false in
  dist.(source) <- 0.0;
  H.insert heap ~key:source 0.0;
  let rec drain () =
    match H.pop_min heap with
    | None -> ()
    | Some (u, du) ->
      settled.(u) <- true;
      G.iter_neighbors g u (fun v e ->
          if not settled.(v) then begin
            let w = weight e in
            if w < 0.0 then invalid_arg "Paths.dijkstra: negative weight";
            if w < infinity then begin
              let d' = du +. w in
              if d' < dist.(v) then begin
                dist.(v) <- d';
                parent_edge.(v) <- e;
                parent.(v) <- u;
                H.insert_or_decrease heap ~key:v d'
              end
            end
          end);
      drain ()
  in
  drain ();
  { Mcgraph.Paths.source; dist; parent_edge; parent }

let bellman_ford g ~weight ~source =
  let nn = Graph.n g in
  let dist = Array.make nn infinity in
  let parent_edge = Array.make nn (-1) in
  let parent = Array.make nn (-1) in
  dist.(source) <- 0.0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < nn do
    changed := false;
    incr rounds;
    Graph.iter_edges g (fun e u v ->
        let w = weight e in
        if w < 0.0 then invalid_arg "Paths.bellman_ford: negative weight";
        if w < infinity then begin
          if dist.(u) +. w < dist.(v) then begin
            dist.(v) <- dist.(u) +. w;
            parent_edge.(v) <- e;
            parent.(v) <- u;
            changed := true
          end;
          if dist.(v) +. w < dist.(u) then begin
            dist.(u) <- dist.(v) +. w;
            parent_edge.(u) <- e;
            parent.(u) <- v;
            changed := true
          end
        end)
  done;
  { Paths.source; dist; parent_edge; parent }

type apsp = {
  d : float array array;
  pe : int array array;
  pn : int array array;
}

let all_pairs g ~weight =
  let nn = Graph.n g in
  let d = Array.make nn [||] in
  let pe = Array.make nn [||] in
  let pn = Array.make nn [||] in
  let weights = Paths.weight_vector g ~weight in
  for s = 0 to nn - 1 do
    let spt = Paths.dijkstra_vec g ~weights ~source:s in
    d.(s) <- spt.Paths.dist;
    pe.(s) <- spt.Paths.parent_edge;
    pn.(s) <- spt.Paths.parent
  done;
  { d; pe; pn }

let apsp_dist a u v = a.d.(u).(v)

let apsp_path a u v =
  if a.d.(u).(v) = infinity then None
  else begin
    let rec walk x acc =
      if x = u then acc else walk a.pn.(u).(x) (a.pe.(u).(x) :: acc)
    in
    Some (walk v [])
  end
