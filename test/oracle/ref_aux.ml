(* The subset metric of [Aux_graph] read straight off the engine rows,
   as it was before the per-request point and hub tables: a subset
   snapshots its hubs' engine rows, a closure row reads its node's engine
   row, and every hub index is a scan of the hub array. The same float
   expressions folded in the same hub order, so [dist] gives the bits
   and [path] the edges that [Aux_graph.dist] and [Aux_graph.path] must
   give. *)

module Aux = Nfv_multicast.Aux_graph
module Sp = Mcgraph.Sp_engine

(* hub moves as in [Aux_graph]: an edge id, a base leg, or via hub k *)
let base_leg = -1
let via k = -2 - k

type t = {
  engine : Sp.t;
  vnode : int;
  h : int;
  hubs : int array;            (* s_k, s'_k, then the subset's servers *)
  hub_row : float array array; (* each hub's engine row; [||] at s'_k *)
  hd : float array;            (* hub-to-hub distances, (i, j) at i·h + j *)
  hmove : int array;
}

let make aux ~engine ~source subset =
  let vnode = Aux.virtual_node aux in
  let h = 2 + List.length subset in
  let hubs = Array.of_list (source :: vnode :: subset) in
  let hub_row =
    Array.map
      (fun v -> if v = vnode then [||] else (Sp.spt engine v).Mcgraph.Paths.dist)
      hubs
  in
  let hd = Array.make (h * h) infinity in
  let hmove = Array.make (h * h) base_leg in
  for i = 0 to h - 1 do
    hd.((i * h) + i) <- 0.0;
    for j = 0 to h - 1 do
      if i <> j && hubs.(i) <> vnode && hubs.(j) <> vnode then
        hd.((i * h) + j) <- hub_row.(i).(hubs.(j))
    done
  done;
  for j = 2 to h - 1 do
    let w = Aux.virtual_edge_weight aux hubs.(j) in
    let e = Option.get (Aux.virtual_edge_of_server aux hubs.(j)) in
    if w < hd.(h + j) then begin
      hd.(h + j) <- w;
      hd.((j * h) + 1) <- w;
      hmove.(h + j) <- e;
      hmove.((j * h) + 1) <- e
    end
  done;
  for k = 0 to h - 1 do
    for i = 0 to h - 1 do
      for j = 0 to h - 1 do
        if hd.((i * h) + k) +. hd.((k * h) + j) < hd.((i * h) + j) then begin
          hd.((i * h) + j) <- hd.((i * h) + k) +. hd.((k * h) + j);
          hmove.((i * h) + j) <- via k
        end
      done
    done
  done;
  { engine; vnode; h; hubs; hub_row; hd; hmove }

let hub_index m node =
  let rec go i = if i >= m.h then -1 else if m.hubs.(i) = node then i else go (i + 1) in
  go 0

let row m x = (Sp.spt m.engine x).Mcgraph.Paths.dist

(* x's hub vector: hd's row for a hub, a_x(j) = min_i rx(h_i) + hd(i, j)
   over the base hubs otherwise *)
let hub_vec m ix rx =
  let h = m.h in
  if ix >= 0 then Array.sub m.hd (ix * h) h
  else begin
    let v = Array.make h infinity in
    for i = 0 to h - 1 do
      if m.hubs.(i) <> m.vnode then
        for j = 0 to h - 1 do
          let c = rx.(m.hubs.(i)) +. m.hd.((i * h) + j) in
          if c < v.(j) then v.(j) <- c
        done
    done;
    v
  end

let dist m x y =
  let ix = hub_index m x in
  let rx = if ix >= 0 then [||] else row m x in
  let v = hub_vec m ix rx in
  let iy = hub_index m y in
  if iy >= 0 then v.(iy)
  else begin
    let best = ref (if Array.length rx > 0 then rx.(y) else infinity) in
    for j = 0 to m.h - 1 do
      if m.hubs.(j) <> m.vnode then begin
        let c = v.(j) +. m.hub_row.(j).(y) in
        if c < !best then best := c
      end
    done;
    !best
  end

let leg m u v = Option.get (Sp.path m.engine u v)

let rec hub_path m i j =
  if i = j then []
  else
    let mv = m.hmove.((i * m.h) + j) in
    if mv >= 0 then [ mv ]
    else if mv = base_leg then leg m m.hubs.(i) m.hubs.(j)
    else hub_path m i (via mv) @ hub_path m (via mv) j

(* the first least (i, j) in hub order, the direct base path the
   incumbent between two non-hub nodes *)
let path m x y =
  if x = y then Some []
  else begin
    let h = m.h in
    let ix = hub_index m x and iy = hub_index m y in
    let best = ref infinity and ci = ref (-1) and cj = ref (-1) in
    let consider c i j =
      if c < !best then begin
        best := c;
        ci := i;
        cj := j
      end
    in
    if ix >= 0 && iy >= 0 then consider m.hd.((ix * h) + iy) ix iy
    else if ix >= 0 then begin
      for j = 0 to h - 1 do
        if m.hubs.(j) <> m.vnode then
          consider (m.hd.((ix * h) + j) +. m.hub_row.(j).(y)) ix j
      done
    end
    else begin
      let rx = row m x in
      if iy >= 0 then begin
        for i = 0 to h - 1 do
          if m.hubs.(i) <> m.vnode then
            consider (rx.(m.hubs.(i)) +. m.hd.((i * h) + iy)) i iy
        done
      end
      else begin
        best := rx.(y);
        for i = 0 to h - 1 do
          if m.hubs.(i) <> m.vnode then
            for j = 0 to h - 1 do
              if m.hubs.(j) <> m.vnode then
                consider
                  (rx.(m.hubs.(i)) +. m.hd.((i * h) + j) +. m.hub_row.(j).(y))
                  i j
            done
        done
      end
    end;
    if !best = infinity then None
    else if !ci < 0 then Some (leg m x y)
    else
      Some
        ((if ix < 0 then leg m x m.hubs.(!ci) else [])
        @ hub_path m !ci !cj
        @ if iy < 0 then leg m m.hubs.(!cj) y else [])
  end

(* [G_k^i] materialised, as [Aux_graph] built it before KMB read the
   virtual edges as spokes: a copy of [g]'s edges, then one edge per
   candidate from the virtual node [G.n g], in candidate order, so edge
   [m + i] is candidate [i]'s *)
let extended g candidates =
  let module G = Mcgraph.Graph in
  let n = G.n g in
  let ext = G.create (n + 1) in
  G.iter_edges g (fun _ u v -> ignore (G.add_edge ext u v));
  List.iter (fun v -> ignore (G.add_edge ext n v)) candidates;
  ext
