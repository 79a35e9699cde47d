(* Heap-based Prim over the component of [root], on [Ref_heap]: the
   reference for [Mst.kruskal]'s spanning-tree weight. *)

open Mcgraph
module Heap = Ref_heap

let prim g ~weight ~root =
  let nn = Graph.n g in
  let in_tree = Array.make nn false in
  let best_edge = Array.make nn (-1) in
  let heap = Heap.create nn in
  let picked = ref [] in
  in_tree.(root) <- true;
  let relax u =
    Graph.iter_neighbors g u (fun v e ->
        let w = weight e in
        if (not in_tree.(v)) && w < infinity then
          match Heap.priority heap v with
          | Some p when p <= w -> ()
          | _ ->
            Heap.insert_or_decrease heap ~key:v w;
            best_edge.(v) <- e)
  in
  relax root;
  let rec drain () =
    match Heap.pop_min heap with
    | None -> ()
    | Some (v, _) ->
      if not in_tree.(v) then begin
        in_tree.(v) <- true;
        picked := best_edge.(v) :: !picked;
        relax v
      end;
      drain ()
  in
  drain ();
  List.rev !picked
