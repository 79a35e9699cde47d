type result = {
  tree : Pseudo_tree.t;
  subset : int list;
  aux_cost : float;
  cost : float;
  combinations : int;
}

module Obs = Nfv_obs.Obs

let c_dijkstras = Obs.Counter.make "appro_multi.dijkstras"
let c_relaxations = Obs.Counter.make "appro_multi.relaxations"
let c_solved = Obs.Counter.make "appro_multi.solved"
let c_infeasible = Obs.Counter.make "appro_multi.infeasible"
let c_admitted = Obs.Counter.make "appro_multi.admitted"
let c_rejected = Obs.Counter.make "appro_multi.rejected"
let c_priced = Obs.Counter.make "appro_multi.subsets_priced"

(* span + Dijkstra attribution + outcome count around one solve/admit *)
let observe span ~ok ~err f =
  let result =
    Mcgraph.Paths.attributed span ~dijkstras:c_dijkstras
      ~relaxations:c_relaxations f
  in
  Obs.Counter.incr (match result with Ok _ -> ok | Error _ -> err);
  result

let default_k = 3

(* Algorithm 1's base-edge price and the engine serving it, in one
   place: [b_k · c_e], and [infinity] on a link without [b_k] residual
   when the run is capacitated. Over a window the engine is keyed per
   Sp_window's exactness contract — the bandwidth's float bits go into
   the family and the capacity pruning is the feasibility bucket; without
   one it is a private engine bound to the network's weight epoch. A
   window over another network would serve another graph's trees. *)
let engine ?window ~capacitated net request =
  let b = request.Sdn.Request.bandwidth in
  let weight e =
    if capacitated && not (Sdn.Network.link_admits net e b) then infinity
    else b *. Sdn.Network.link_unit_cost net e
  in
  match window with
  | None ->
    Mcgraph.Sp_engine.create (Sdn.Network.graph net) ~weight
      ~epoch:(fun () -> Sdn.Network.weight_epoch net)
  | Some w when Sp_window.net w != net ->
    invalid_arg "Appro_multi: window over a different network"
  | Some w ->
    let bits = Int64.to_string (Int64.bits_of_float b) in
    let family, bucket =
      if capacitated then ("appro.cap:" ^ bits, Sp_window.bucket w ~bandwidth:b)
      else ("appro.all:" ^ bits, -1)
    in
    Sp_window.engine w ~family ~bucket ~weight

(* lexicographic order on int lists, [[]] first: the order polymorphic
   [compare] gives them *)
let rec compare_subsets a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' ->
    let c = Int.compare x y in
    if c <> 0 then c else compare_subsets a' b'

(* deterministic order: cost, then subset size, then the subset itself
   (equal-cost trees are common — a superset whose extra servers go
   unused costs the same as its subset) *)
let order ca sa cb sb =
  let c = Float.compare ca cb in
  if c <> 0 then c
  else
    let c = Int.compare (List.length sa) (List.length sb) in
    if c <> 0 then c else compare_subsets sa sb

(* Call [f cost subset edges] for every feasible combination of [aux]'s
   reachable servers, in enumeration order, except those
   [Aux_graph.redundant] proves repeat a smaller combination's tree and
   cost (DESIGN.md §17): that smaller one comes first in [order], so no
   minimum and no first-allocatable candidate changes. *)
let price aux f =
  let k = Aux_graph.k aux in
  if k < 1 then invalid_arg "Appro_multi: K must be at least 1";
  Combinations.iter_subsets_up_to (Aux_graph.reachable_servers aux) k
    (fun subset ->
      if not (Aux_graph.redundant aux subset) then begin
        Obs.Counter.incr c_priced;
        let sm = Aux_graph.subset_metric aux subset in
        match Aux_graph.steiner_tree sm with
        | None -> ()
        | Some edges ->
          let c = Aux_graph.tree_cost sm edges in
          if c < infinity then f c subset edges
      end)

let candidates ?(k = default_k) ?placement_cost ~engine ~usable_servers net request =
  let aux =
    Aux_graph.build ~engine ?placement_cost ~k ~net ~request
      ~candidate_servers:usable_servers ()
  in
  let found = ref [] in
  price aux (fun c subset edges -> found := (c, subset, aux, edges) :: !found);
  List.sort (fun (ca, sa, _, _) (cb, sb, _, _) -> order ca sa cb sb) !found

(* The [combinations] field always reports the size of the explored
   search space: the number of non-empty server subsets of size ≤ K drawn
   from the reachable candidate servers, feasible or not. *)
let combinations_explored aux =
  Combinations.count_up_to
    (List.length (Aux_graph.reachable_servers aux))
    (Aux_graph.k aux)

let result net aux ~aux_cost ~subset tree =
  {
    tree;
    subset = List.sort Int.compare subset;
    aux_cost;
    cost = Pseudo_tree.cost net tree;
    combinations = combinations_explored aux;
  }

(* one incumbent, the least candidate under [order] so far *)
let solve_with ?(k = default_k) ?window ~capacitated ~usable_servers net request =
  observe "appro_multi.solve" ~ok:c_solved ~err:c_infeasible @@ fun () ->
  if usable_servers = [] then Error "no usable server"
  else
    let aux =
      Aux_graph.build
        ~engine:(engine ?window ~capacitated net request)
        ~k ~net ~request ~candidate_servers:usable_servers ()
    in
    let best = ref None in
    price aux (fun c subset edges ->
        match !best with
        | Some (bc, bs, _) when order c subset bc bs >= 0 -> ()
        | _ -> best := Some (c, subset, edges));
    match !best with
    | None -> Error "no feasible pseudo-multicast tree"
    | Some (aux_cost, subset, edges) ->
      Ok (result net aux ~aux_cost ~subset (Aux_graph.to_pseudo_tree aux edges))

let solve ?k ?window net request =
  solve_with ?k ?window ~capacitated:false
    ~usable_servers:(Sdn.Network.servers net) net request

(* servers with [C(SC_k)] computing residual; the link pruning lives in
   [engine]'s price *)
let capacitated_filters net request =
  let demand = Sdn.Request.demand_mhz request in
  List.filter (fun v -> Sdn.Network.server_admits net v demand) (Sdn.Network.servers net)

let solve_capacitated ?k ?window net request =
  solve_with ?k ?window ~capacitated:true
    ~usable_servers:(capacitated_filters net request) net request

let admit ?k ?window net request =
  observe "appro_multi.admit" ~ok:c_admitted ~err:c_rejected @@ fun () ->
  let usable = capacitated_filters net request in
  if usable = [] then Error "no usable server"
  else begin
    let engine = engine ?window ~capacitated:true net request in
    let cands = candidates ?k ~engine ~usable_servers:usable net request in
    let rec try_cands = function
      | [] -> Error "no allocatable pseudo-multicast tree"
      | (aux_cost, subset, aux, edges) :: rest -> (
        let tree = Aux_graph.to_pseudo_tree aux edges in
        match Sdn.Network.allocate net (Pseudo_tree.allocation tree) with
        | Ok () -> Ok (result net aux ~aux_cost ~subset tree)
        | Error _ -> try_cands rest)
    in
    try_cands cands
  end
