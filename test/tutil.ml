(* Shared helpers for the test suites. *)

module G = Mcgraph.Graph
module Rng = Topology.Rng

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* A connected random graph from a seed: n in [lo, hi], extra edges over a
   random spanning tree. Returns the graph and the rng used (advanced), so
   callers can draw more randomness deterministically. *)
let random_connected_graph seed ~lo ~hi =
  let rng = Rng.create seed in
  let n = Rng.int_range rng lo hi in
  let g = G.create n in
  for v = 1 to n - 1 do
    ignore (G.add_edge g v (Rng.int rng v))
  done;
  let extra = Rng.int rng (2 * n) in
  let added = ref 0 and guard = ref 0 in
  while !added < extra && !guard < 20 * extra + 20 do
    incr guard;
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (G.mem_edge g u v) then begin
      ignore (G.add_edge g u v);
      incr added
    end
  done;
  (g, rng)

(* random positive weights for a graph's edges *)
let random_weights rng g =
  Array.init (G.m g) (fun _ -> Rng.float_range rng 0.1 10.0)

let weight_fn w e = w.(e)

(* a small random SDN network for end-to-end properties *)
let random_network seed ~lo ~hi =
  let rng = Rng.create seed in
  let n = Rng.int_range rng lo hi in
  let topo = Topology.Waxman.generate ~alpha:0.5 ~beta:0.4 rng ~n in
  let net = Sdn.Network.make_random_servers ~fraction:0.2 ~rng topo in
  (net, rng)

let random_request rng net ~id = Workload.Gen.request rng net ~id

(* checks that an edge set forms a tree (acyclic and connected) *)
let is_tree g edges =
  match edges with
  | [] -> true
  | e :: _ ->
    let u, _ = G.endpoints g e in
    (match Mcgraph.Tree.of_edges g ~root:u edges with
    | (_ : Mcgraph.Tree.t) -> true
    | exception Invalid_argument _ -> false)

let check_float = Alcotest.float 1e-6

let assert_close ?(eps = 1e-6) msg a b =
  if Float.abs (a -. b) > eps *. (1.0 +. Float.abs a +. Float.abs b) then
    Alcotest.failf "%s: %.9g <> %.9g" msg a b

(* ---- bit-identity references for the array-backed kernels ---- *)

(* Weights with many exact ties: small integers, the same integers plus
   a hop epsilon (as Online_CP's prices carry), zeros and pruned
   (infinite) edges. *)
let tied_weights rng g =
  Array.init (G.m g) (fun _ ->
      match Rng.int rng 8 with
      | 0 -> infinity
      | 1 -> 0.0
      | 2 | 3 -> float_of_int (1 + Rng.int rng 3) +. 1e-6
      | _ -> float_of_int (1 + Rng.int rng 3))

(* Dijkstra as it stood before the weight-vector kernel: the closure is
   evaluated on every scanned edge and [Heap.pop_min] returns the popped
   priority. The kernel must reproduce it bit for bit. *)
let reference_dijkstra g ~weight ~source =
  let module H = Mcgraph.Heap in
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

(* equal on [dist] bits, [parent] and [parent_edge] *)
let same_spt (a : Mcgraph.Paths.spt) (b : Mcgraph.Paths.spt) =
  a.source = b.source
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.dist b.dist
  && a.parent = b.parent
  && a.parent_edge = b.parent_edge

(* Kruskal as it stood before the array kernel: a [List.sort] (stable,
   so equal weights keep their input order) over a fresh union-find *)
let reference_kruskal_edges g ~weight edge_ids =
  let weighted =
    List.filter_map
      (fun e ->
        let w = weight e in
        if w = infinity then None else Some (w, e))
      edge_ids
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) weighted in
  let uf = Mcgraph.Union_find.create (G.n g) in
  List.map snd
    (List.filter
       (fun (_, e) ->
         let u, v = G.endpoints g e in
         Mcgraph.Union_find.union uf u v)
       sorted)
