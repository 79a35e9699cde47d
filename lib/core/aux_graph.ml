module G = Mcgraph.Graph
module Paths = Mcgraph.Paths
module Sp = Mcgraph.Sp_engine

type t = {
  net : Sdn.Network.t;
  req : Sdn.Request.t;
  ext : G.t;
  vnode : int;
  base_m : int;
  vedge_of_server : (int, int) Hashtbl.t;   (* server -> virtual edge id *)
  server_of_vedge : int array;              (* vedge id - base_m -> server *)
  wv : (int, float) Hashtbl.t;              (* server -> virtual edge weight *)
  engine : Sp.t;                            (* base graph, weight b·c_e, pruned *)
  candidates : int list;
}

(* base edges cost what the engine's pruned weights say: its per-epoch
   vector, the same values [Sp.dist] and [Sp.path] were computed from *)
let base_weight t e = (Sp.weights t.engine).(e)

let build ?(keep = fun _ -> true) ?edge_weight ?placement_cost ?engine ~net
    ~request ~candidate_servers () =
  let g = Sdn.Network.graph net in
  let nn = G.n g and mm = G.m g in
  let ext = G.create (nn + 1) in
  G.iter_edges g (fun _ u v -> ignore (G.add_edge ext u v));
  let vedge_of_server = Hashtbl.create 16 in
  let server_of_vedge = Array.make (max (List.length candidate_servers) 1) (-1) in
  List.iteri
    (fun i v ->
      let e = G.add_edge ext nn v in
      Hashtbl.replace vedge_of_server v e;
      server_of_vedge.(i) <- v)
    candidate_servers;
  let edge_weight =
    match edge_weight with
    | Some w -> w
    | None ->
      fun e -> request.Sdn.Request.bandwidth *. Sdn.Network.link_unit_cost net e
  in
  let placement_cost =
    match placement_cost with
    | Some c -> c
    | None -> fun v -> Sdn.Network.chain_cost net v request.Sdn.Request.chain
  in
  let pruned_weight e = if keep e then edge_weight e else infinity in
  (* lazy per-source engine instead of eager all-pairs: only the request
     source, the candidate servers and the queried destinations ever get
     a Dijkstra tree. Bound to the network's weight epoch so residual-
     dependent [keep]/[edge_weight] closures invalidate after allocate.
     A caller that can prove weight-function equality across requests
     (Appro_multi over an Sp_window) acquires a shared engine instead. *)
  let engine =
    match engine with
    | Some acquire -> acquire ~weight:pruned_weight
    | None ->
      Sp.create g ~weight:pruned_weight
        ~epoch:(fun () -> Sdn.Network.weight_epoch net)
  in
  let t =
    {
      net;
      req = request;
      ext;
      vnode = nn;
      base_m = mm;
      vedge_of_server;
      server_of_vedge;
      wv = Hashtbl.create 16;
      engine;
      candidates = candidate_servers;
    }
  in
  let s = request.Sdn.Request.source in
  List.iter
    (fun v ->
      let d = Sp.dist t.engine s v in
      let w =
        if d = infinity then infinity
        else d +. placement_cost v
      in
      Hashtbl.replace t.wv v w)
    candidate_servers;
  t

let ext_graph t = t.ext
let virtual_node t = t.vnode
let base_edge_count t = t.base_m
let is_virtual_edge t e = e >= t.base_m
let server_of_virtual_edge t e =
  if not (is_virtual_edge t e) then invalid_arg "Aux_graph: not a virtual edge";
  t.server_of_vedge.(e - t.base_m)

let virtual_edge_of_server t v = Hashtbl.find_opt t.vedge_of_server v

let virtual_edge_weight t v =
  match Hashtbl.find_opt t.wv v with
  | Some w -> w
  | None -> invalid_arg "Aux_graph.virtual_edge_weight: not a candidate"

let reachable_servers t =
  List.filter (fun v -> virtual_edge_weight t v < infinity) t.candidates

let base_dist t u v = Sp.dist t.engine u v
let base_path t u v = Sp.path t.engine u v
let engine t = t.engine

(* ------------------------------------------------------------------ *)
(* subset metric: exact hub decomposition                               *)

type hub_move =
  | Base_leg                  (* shortest base path between the two hubs *)
  | Special of int            (* a single special edge id *)
  | Via of int                (* intermediate hub index (Floyd) *)

type subset_metric = {
  aux : t;
  subset : int list;
  hubs : int array;           (* node ids; hubs.(0) = s_k, hubs.(1) = s'_k *)
  hub_row : float array array; (* hubs.(i)'s engine dist array; [||] at s'_k *)
  hd : float array array;     (* hub-to-hub exact distances *)
  hmove : hub_move array array;
  through : float array option array;
      (* through.(x) for a non-hub node x: a_x(j) = min_i rx(h_i) + hd(i, j)
         over base hubs i, j; filled on x's first non-hub query *)
}

let weight sm e =
  let t = sm.aux in
  if is_virtual_edge t e then begin
    let v = server_of_virtual_edge t e in
    if List.mem v sm.subset then virtual_edge_weight t v else infinity
  end
  else base_weight t e

let subset_metric t subset =
  List.iter
    (fun v ->
      if not (Hashtbl.mem t.wv v) then
        invalid_arg "Aux_graph.subset_metric: not a candidate server")
    subset;
  (* The paper zeroes the cost of base edges (s_k, v) for v in the chosen
     combination (Algorithm 1, step 5). Under per-traversal resource
     accounting that rule lets Steiner trees transit server-adjacent
     edges for free — including for servers whose VM is never used — and
     systematically inflates the realised cost of multi-server trees, so
     we deliberately do not apply it (DESIGN.md §3): the only special
     edges are the virtual ones. *)
  let hubs = Array.of_list (t.req.Sdn.Request.source :: t.vnode :: subset) in
  let h = Array.length hubs in
  (* snapshot each hub's engine row once so the (hot) metric queries
     below read flat float arrays, not the cache; rows are shared with
     the engine across all subsets of the same request *)
  let hub_row =
    Array.map
      (fun hv ->
        if hv = t.vnode then [||] else (Sp.spt t.engine hv).Mcgraph.Paths.dist)
      hubs
  in
  let hd = Array.make_matrix h h infinity in
  let hmove = Array.make_matrix h h Base_leg in
  (* direct moves: base legs between base hubs, virtual edges
     (s'_k ↔ subset server) *)
  for i = 0 to h - 1 do
    hd.(i).(i) <- 0.0;
    for j = 0 to h - 1 do
      if i <> j then begin
        let hi = hubs.(i) and hj = hubs.(j) in
        if hi <> t.vnode && hj <> t.vnode then begin
          hd.(i).(j) <- hub_row.(i).(hj);
          hmove.(i).(j) <- Base_leg
        end
      end
    done
  done;
  let set_special i j w e =
    if w < hd.(i).(j) then begin
      hd.(i).(j) <- w;
      hd.(j).(i) <- w;
      hmove.(i).(j) <- Special e;
      hmove.(j).(i) <- Special e
    end
  in
  Array.iteri
    (fun j hj ->
      if j >= 2 then begin
        (* hub j is a subset server: virtual edge to s'_k *)
        match virtual_edge_of_server t hj with
        | Some e -> set_special 1 j (virtual_edge_weight t hj) e
        | None -> ()
      end)
    hubs;
  (* Floyd–Warshall over the hubs *)
  for k = 0 to h - 1 do
    for i = 0 to h - 1 do
      for j = 0 to h - 1 do
        if hd.(i).(k) +. hd.(k).(j) < hd.(i).(j) then begin
          hd.(i).(j) <- hd.(i).(k) +. hd.(k).(j);
          hmove.(i).(j) <- Via k
        end
      done
    done
  done;
  {
    aux = t;
    subset;
    hubs;
    hub_row;
    hd;
    hmove;
    through = Array.make (G.n t.ext) None;
  }

(* distance between extended nodes; hubs.(1) is the virtual node *)
let dist sm x y =
  let t = sm.aux in
  let h = Array.length sm.hubs in
  let hub_index node =
    let rec find i = if i >= h then -1 else if sm.hubs.(i) = node then i else find (i + 1) in
    find 0
  in
  let best = ref infinity in
  let ix = hub_index x and iy = hub_index y in
  if ix >= 0 && iy >= 0 then best := sm.hd.(ix).(iy)
  else if ix >= 0 then begin
    for j = 0 to h - 1 do
      if sm.hubs.(j) <> t.vnode then begin
        let c = sm.hd.(ix).(j) +. sm.hub_row.(j).(y) in
        if c < !best then best := c
      end
    done
  end
  else if iy >= 0 then begin
    let rx = (Sp.spt t.engine x).Mcgraph.Paths.dist in
    for i = 0 to h - 1 do
      if sm.hubs.(i) <> t.vnode then begin
        let c = rx.(sm.hubs.(i)) +. sm.hd.(i).(iy) in
        if c < !best then best := c
      end
    done
  end
  else begin
    (* min over (i, j) of (rx(h_i) + hd(i, j)) + row_j(y) taken as
       min over j of a_x(j) + row_j(y): rounded addition is monotone, so
       the inner minimum commutes with adding row_j(y), bit for bit *)
    let rx = (Sp.spt t.engine x).Mcgraph.Paths.dist in
    let a =
      match sm.through.(x) with
      | Some a -> a
      | None ->
        let a = Array.make h infinity in
        for i = 0 to h - 1 do
          if sm.hubs.(i) <> t.vnode then
            for j = 0 to h - 1 do
              let c = rx.(sm.hubs.(i)) +. sm.hd.(i).(j) in
              if c < a.(j) then a.(j) <- c
            done
        done;
        sm.through.(x) <- Some a;
        a
    in
    best := rx.(y);
    for j = 0 to h - 1 do
      if sm.hubs.(j) <> t.vnode then begin
        let c = a.(j) +. sm.hub_row.(j).(y) in
        if c < !best then best := c
      end
    done
  end;
  !best

(* expand the hub-level move (i, j) into concrete edge ids *)
let rec expand_hub sm i j acc =
  if i = j then acc
  else
    match sm.hmove.(i).(j) with
    | Special e -> e :: acc
    | Base_leg -> (
      match Sp.path sm.aux.engine sm.hubs.(i) sm.hubs.(j) with
      | Some p -> List.rev_append (List.rev p) acc
      | None -> invalid_arg "Aux_graph: hub base leg without path")
    | Via k -> expand_hub sm i k (expand_hub sm k j acc)

let path sm x y =
  let t = sm.aux in
  if dist sm x y = infinity then None
  else if x = y then Some []
  else begin
    let h = Array.length sm.hubs in
    let hub_index node =
      let rec find i =
        if i >= h then -1 else if sm.hubs.(i) = node then i else find (i + 1)
      in
      find 0
    in
    let ix = hub_index x and iy = hub_index y in
    (* recompute the argmin of [dist] and expand it *)
    let best = ref infinity and choice = ref `None in
    if ix >= 0 && iy >= 0 then begin
      best := sm.hd.(ix).(iy);
      choice := `Hub (ix, iy)
    end
    else if ix >= 0 then begin
      for j = 0 to h - 1 do
        if sm.hubs.(j) <> t.vnode then begin
          let c = sm.hd.(ix).(j) +. sm.hub_row.(j).(y) in
          if c < !best then begin
            best := c;
            choice := `From_hub (ix, j)
          end
        end
      done
    end
    else if iy >= 0 then begin
      let rx = (Sp.spt t.engine x).Mcgraph.Paths.dist in
      for i = 0 to h - 1 do
        if sm.hubs.(i) <> t.vnode then begin
          let c = rx.(sm.hubs.(i)) +. sm.hd.(i).(iy) in
          if c < !best then begin
            best := c;
            choice := `To_hub (i, iy)
          end
        end
      done
    end
    else begin
      let rx = (Sp.spt t.engine x).Mcgraph.Paths.dist in
      best := rx.(y);
      choice := `Direct;
      for i = 0 to h - 1 do
        if sm.hubs.(i) <> t.vnode then
          for j = 0 to h - 1 do
            if sm.hubs.(j) <> t.vnode then begin
              let c =
                rx.(sm.hubs.(i))
                +. sm.hd.(i).(j)
                +. sm.hub_row.(j).(y)
              in
              if c < !best then begin
                best := c;
                choice := `Through (i, j)
              end
            end
          done
      done
    end;
    let base_path_exn a b =
      match Sp.path t.engine a b with
      | Some p -> p
      | None -> invalid_arg "Aux_graph.path: missing base path"
    in
    let edges =
      match !choice with
      | `None -> invalid_arg "Aux_graph.path: unreachable"
      | `Direct -> base_path_exn x y
      | `Hub (i, j) -> expand_hub sm i j []
      | `From_hub (i, j) -> expand_hub sm i j (base_path_exn sm.hubs.(j) y)
      | `To_hub (i, j) -> base_path_exn x sm.hubs.(i) @ expand_hub sm i j []
      | `Through (i, j) ->
        base_path_exn x sm.hubs.(i)
        @ expand_hub sm i j (base_path_exn sm.hubs.(j) y)
    in
    Some edges
  end

let steiner_tree sm =
  let t = sm.aux in
  let terminals = t.vnode :: t.req.Sdn.Request.destinations in
  Mcgraph.Steiner.kmb_with_metric t.ext ~weight:(weight sm) ~terminals
    ~dist:(dist sm) ~path:(path sm)

let tree_cost sm edges =
  List.fold_left (fun acc e -> acc +. weight sm e) 0.0 edges

let to_pseudo_tree t tree_edges =
  let req = t.req in
  let tree = Mcgraph.Tree.of_edges t.ext ~root:t.vnode tree_edges in
  let servers = ref [] in
  let uses = ref [] in
  List.iter
    (fun e ->
      if is_virtual_edge t e then begin
        let v = server_of_virtual_edge t e in
        servers := v :: !servers;
        match base_path t req.Sdn.Request.source v with
        | Some p -> uses := p @ !uses
        | None -> invalid_arg "Aux_graph.to_pseudo_tree: unreachable server"
      end
      else uses := e :: !uses)
    tree_edges;
  if !servers = [] then invalid_arg "Aux_graph.to_pseudo_tree: no server in tree";
  let route_of d =
    if not (Mcgraph.Tree.mem tree d) then
      invalid_arg "Aux_graph.to_pseudo_tree: destination not spanned";
    let down = List.rev (Mcgraph.Tree.path_up tree d ~ancestor:t.vnode) in
    match down with
    | first :: onward when is_virtual_edge t first ->
      let v = server_of_virtual_edge t first in
      let to_server =
        match base_path t req.Sdn.Request.source v with
        | Some p -> p
        | None -> assert false
      in
      (d, { Pseudo_tree.to_server; server = v; onward })
    | _ -> invalid_arg "Aux_graph.to_pseudo_tree: path does not start virtually"
  in
  let routes = List.map route_of req.Sdn.Request.destinations in
  Pseudo_tree.make ~request:req ~servers:!servers
    ~edge_uses:(Pseudo_tree.edge_uses_of_list !uses)
    ~routes

let materialize t ~subset =
  let sm = subset_metric t subset in
  (t.ext, weight sm)
