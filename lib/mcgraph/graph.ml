type csr = {
  off : int array;                  (* node -> first slot; length n+1 *)
  nbr : int array;                  (* flat neighbor array, length 2m *)
  eid : int array;                  (* flat edge-id array, length 2m *)
}

type t = {
  n : int;
  mutable m : int;
  mutable eu : int array;           (* endpoint arrays, grown geometrically *)
  mutable ev : int array;
  adj : (int * int) list array;     (* node -> (neighbor, edge id) list *)
  mutable csr_cache : csr option;   (* frozen view, dropped on add_edge *)
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  {
    n;
    m = 0;
    eu = Array.make 8 0;
    ev = Array.make 8 0;
    adj = Array.make (max n 1) [];
    csr_cache = None;
  }

let n g = g.n
let m g = g.m

let check_node g u name =
  if u < 0 || u >= g.n then invalid_arg (name ^ ": node out of range")

let grow g =
  let cap = Array.length g.eu in
  if g.m >= cap then begin
    let eu' = Array.make (2 * cap) 0 and ev' = Array.make (2 * cap) 0 in
    Array.blit g.eu 0 eu' 0 g.m;
    Array.blit g.ev 0 ev' 0 g.m;
    g.eu <- eu';
    g.ev <- ev'
  end

let add_edge g u v =
  check_node g u "Graph.add_edge";
  check_node g v "Graph.add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  grow g;
  let e = g.m in
  g.eu.(e) <- u;
  g.ev.(e) <- v;
  g.adj.(u) <- (v, e) :: g.adj.(u);
  g.adj.(v) <- (u, e) :: g.adj.(v);
  g.m <- e + 1;
  g.csr_cache <- None;
  e

let of_edges ~n:nodes edges =
  let g = create nodes in
  List.iter (fun (u, v) -> ignore (add_edge g u v)) edges;
  g

let check_edge g e name =
  if e < 0 || e >= g.m then invalid_arg (name ^ ": edge out of range")

let endpoints g e =
  check_edge g e "Graph.endpoints";
  (g.eu.(e), g.ev.(e))

let edge_u g e =
  check_edge g e "Graph.edge_u";
  g.eu.(e)

let edge_v g e =
  check_edge g e "Graph.edge_v";
  g.ev.(e)

let other_endpoint g e u =
  check_edge g e "Graph.other_endpoint";
  if g.eu.(e) = u then g.ev.(e)
  else if g.ev.(e) = u then g.eu.(e)
  else invalid_arg "Graph.other_endpoint: not an endpoint"

let neighbors g u =
  check_node g u "Graph.neighbors";
  g.adj.(u)

let iter_neighbors g u f =
  check_node g u "Graph.iter_neighbors";
  List.iter (fun (v, e) -> f v e) g.adj.(u)

let degree g u =
  check_node g u "Graph.degree";
  List.length g.adj.(u)

let find_edge g u v =
  check_node g u "Graph.find_edge";
  check_node g v "Graph.find_edge";
  let best = ref None in
  List.iter
    (fun (w, e) ->
      if w = v then
        match !best with Some e' when e' <= e -> () | _ -> best := Some e)
    g.adj.(u);
  !best

let mem_edge g u v = find_edge g u v <> None

let iter_edges g f =
  for e = 0 to g.m - 1 do
    f e g.eu.(e) g.ev.(e)
  done

let edge_list g =
  let acc = ref [] in
  iter_edges g (fun e u v -> acc := (e, u, v) :: !acc);
  List.rev !acc

let c_csr_rebuilds = Nfv_obs.Obs.Counter.make "graph.csr_rebuilds"

let build_csr g =
  Nfv_obs.Obs.Counter.incr c_csr_rebuilds;
  let off = Array.make (g.n + 1) 0 in
  for u = 0 to g.n - 1 do
    off.(u + 1) <- off.(u) + List.length g.adj.(u)
  done;
  let slots = off.(g.n) in
  let nbr = Array.make (max slots 1) (-1) in
  let eid = Array.make (max slots 1) (-1) in
  for u = 0 to g.n - 1 do
    (* keep the adjacency-list order so CSR traversal is observationally
       identical to [iter_neighbors] (same tie-breaking in Dijkstra &c.) *)
    let i = ref off.(u) in
    List.iter
      (fun (v, e) ->
        nbr.(!i) <- v;
        eid.(!i) <- e;
        incr i)
      g.adj.(u)
  done;
  { off; nbr; eid }

let csr g =
  match g.csr_cache with
  | Some c -> c
  | None ->
    let c = build_csr g in
    g.csr_cache <- Some c;
    c

let copy g =
  {
    n = g.n;
    m = g.m;
    eu = Array.copy g.eu;
    ev = Array.copy g.ev;
    adj = Array.copy g.adj;
    csr_cache = g.csr_cache;   (* immutable once built; safe to share *)
  }
