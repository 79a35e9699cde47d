module G = Mcgraph.Graph
module Paths = Mcgraph.Paths
module Sp = Mcgraph.Sp_engine
module Steiner = Mcgraph.Steiner
module Tree = Mcgraph.Tree
module Union_find = Mcgraph.Union_find
module Obs = Nfv_obs.Obs

let c_attempted = Obs.Counter.make "repair.attempted"
let c_patched = Obs.Counter.make "repair.patched"
let c_migrated = Obs.Counter.make "repair.migrated"
let c_readmitted = Obs.Counter.make "repair.readmitted"
let c_dropped = Obs.Counter.make "repair.dropped"
let c_migrate_pruned = Obs.Counter.make "repair.migrate.pruned"

(* whole-call latency; recorded manually (not via Span.run) so nesting
   inside a caller's span cannot rename it (spans join nested names
   with "/"), while the per-tier spans below are fine to nest under it *)
let h_attempt = Obs.Histogram.make "repair.attempt"

type tier = Patched | Migrated | Readmitted

type outcome =
  | Repaired of { tree : Pseudo_tree.t; tier : tier }
  | Dropped of string

(* effort caps: tier 1 gives up when more severed terminals need
   re-attaching, tier 2 prices at most this many candidate servers (the
   bound-sorted prefix) *)
let max_patch_paths = 8
let max_migrate_candidates = 16

(* ---- shared tree surgery ---------------------------------------------- *)

(* the partition [edges] make of the nodes, and the edges on [from]'s
   side of it. A victim's support is a tree, so these are exactly the
   edges of [from]'s component. *)
let component g ~edges ~from =
  let uf = Union_find.create (G.n g) in
  List.iter (fun e -> ignore (Union_find.union uf (G.edge_u g e) (G.edge_v g e))) edges;
  (uf, List.filter (fun e -> Union_find.same uf from (G.edge_u g e)) edges)

(* ---- tier 1: local patch ---------------------------------------------- *)

exception Infeasible

(* re-attach every severed terminal of the old tree through current
   shortest paths; the old server assignment is kept *)
let try_patch ~eng ~link_down ~server_down net (victim : Pseudo_tree.t)
    =
  let g = Sdn.Network.graph net in
  let request = victim.Pseudo_tree.request in
  let s = request.Sdn.Request.source in
  let dests = request.Sdn.Request.destinations in
  if List.exists server_down victim.Pseudo_tree.servers then None
  else begin
    let support = List.map fst victim.Pseudo_tree.edge_uses in
    let down, surviving = List.partition link_down support in
    if down = [] then
      (* no structural loss (the session was evicted by a degradation):
         try to re-establish the identical tree under the new residuals *)
      match Sdn.Network.allocate net (Pseudo_tree.allocation victim) with
      | Ok () -> Some victim
      | Error _ -> None
    else begin
      let uf, keep = component g ~edges:surviving ~from:s in
      let in_tree = Array.init (G.n g) (Union_find.same uf s) in
      let must_reach =
        List.sort_uniq compare (victim.Pseudo_tree.servers @ dests)
      in
      let severed = List.filter (fun v -> not in_tree.(v)) must_reach in
      if List.length severed > max_patch_paths then None
      else
        try
          (* Each severed terminal gets a shortest path to the closest
             node already in the tree (tie: smallest id). Intermediate
             path nodes are strictly closer to the terminal than the
             chosen attach point, hence not yet in the tree — so the
             paths are edge-disjoint from the kept tree and from each
             other, and the union stays acyclic. *)
          let patches = ref [] in
          List.iter
            (fun tgt ->
              let spt = Sp.spt eng tgt in
              let best = ref (-1) and bd = ref infinity in
              Array.iteri
                (fun u inside ->
                  if inside && spt.Paths.dist.(u) < !bd then begin
                    best := u;
                    bd := spt.Paths.dist.(u)
                  end)
                in_tree;
              if !best < 0 then raise Infeasible;
              match Paths.path_edges g spt !best with
              | None -> raise Infeasible
              | Some path ->
                patches := List.rev_append path !patches;
                let cur = ref tgt in
                in_tree.(tgt) <- true;
                List.iter
                  (fun e ->
                    cur := G.other_endpoint g e !cur;
                    in_tree.(!cur) <- true)
                  path)
            severed;
          let support =
            Steiner.prune g ~terminals:(s :: must_reach) (keep @ !patches)
          in
          let server_of d =
            match List.assoc_opt d victim.Pseudo_tree.routes with
            | Some r -> r.Pseudo_tree.server
            | None -> List.hd victim.Pseudo_tree.servers
          in
          let tree = Pseudo_tree.of_support g ~support ~request ~server_of in
          match Sdn.Network.allocate net (Pseudo_tree.allocation tree) with
          | Ok () -> Some tree
          | Error _ -> None
        with Infeasible | Invalid_argument _ -> None
    end
  end

(* ---- tier 2: server migration ----------------------------------------- *)

(* keep the surviving tree over the destinations, move the service chain
   to the cheapest reachable server. Candidate servers are screened by
   the triangle-inequality lower bound [w_v + max 0 (dist s v - maxd)]
   before the per-candidate Dijkstra runs, with Online_cp's ULP slack so
   screening never reorders the exact outcome. *)
let try_migrate ~eng cp ~link_down ~server_down net (victim : Pseudo_tree.t) =
  match victim.Pseudo_tree.servers with
  | [] | _ :: _ :: _ -> None
  | [ _v0 ] ->
    let g = Sdn.Network.graph net in
    let request = victim.Pseudo_tree.request in
    let s = request.Sdn.Request.source in
    let dests = request.Sdn.Request.destinations in
    let demand = Sdn.Request.demand_mhz request in
    let support = List.map fst victim.Pseudo_tree.edge_uses in
    let surviving = List.filter (fun e -> not (link_down e)) support in
    let uf, keep = component g ~edges:surviving ~from:s in
    if not (List.for_all (Union_find.same uf s) dests) then None
    else begin
      try
        let kept = Steiner.prune g ~terminals:(s :: dests) keep in
        Tree.root g ~root:s kept;
        let tree_nodes = Tree.nodes () in
        let spt_s = Sp.spt eng s in
        let maxd =
          List.fold_left
            (fun acc v -> Float.max acc spt_s.Paths.dist.(v))
            0.0 tree_nodes
        in
        let w_v v = Online_cp.server_weight cp ~demand v in
        let screened =
          List.filter_map
            (fun v ->
              if server_down v || not (Sdn.Network.server_admits net v demand)
              then None
              else begin
                let dsv = spt_s.Paths.dist.(v) in
                let bound =
                  if dsv = infinity then
                    if maxd = infinity then w_v v else infinity
                  else w_v v +. Float.max 0.0 (dsv -. maxd)
                in
                Some (bound, v)
              end)
            (Sdn.Network.servers net)
          |> List.sort compare
        in
        (* price candidates in bound order, best-first under the cap *)
        let priced = ref [] in
        let incumbent = ref infinity in
        let considered = ref 0 in
        List.iter
          (fun (bound, v) ->
            if
              bound = infinity
              || bound > Online_cp.slack !incumbent
              || !considered >= max_migrate_candidates
            then Obs.Counter.incr c_migrate_pruned
            else begin
              incr considered;
              let spt_v = Sp.spt eng v in
              let best = ref (-1) and bd = ref infinity in
              List.iter
                (fun u ->
                  if spt_v.Paths.dist.(u) < !bd then begin
                    best := u;
                    bd := spt_v.Paths.dist.(u)
                  end)
                (List.sort compare tree_nodes);
              if !best >= 0 && !bd < infinity then begin
                let score = w_v v +. !bd in
                if score < !incumbent then incumbent := score;
                priced := (score, v, !best) :: !priced
              end
            end)
          screened;
        let ranked = List.sort compare !priced in
        let rec attempt = function
          | [] -> None
          | (_score, v, attach) :: rest -> (
            let spt_v = Sp.spt eng v in
            match Paths.path_edges g spt_v attach with
            | None -> attempt rest
            | Some path -> (
              match
                let tree =
                  Pseudo_tree.of_support g ~support:(kept @ path) ~request
                    ~server_of:(fun _ -> v)
                in
                (tree, Sdn.Network.allocate net (Pseudo_tree.allocation tree))
              with
              | tree, Ok () -> Some tree
              | _, Error _ -> attempt rest
              | exception Invalid_argument _ -> attempt rest))
        in
        attempt ranked
      with Invalid_argument _ -> None
    end

(* ---- the escalation ladder -------------------------------------------- *)

let repair (p : Admission.pricing) ~link_down ~server_down
    (victim : Pseudo_tree.t) =
  Obs.Counter.incr c_attempted;
  let t0 = if !Obs.enabled then !Obs.clock () else 0.0 in
  let cp = p.Admission.cp in
  let net = Sp_window.net cp.Online_cp.window in
  let eng =
    Online_cp.engine cp
      ~bandwidth:victim.Pseudo_tree.request.Sdn.Request.bandwidth
  in
  let patched =
    Obs.Span.run "repair.patch" @@ fun () ->
    try_patch ~eng ~link_down ~server_down net victim
  in
  let result =
    match patched with
    | Some tree ->
      Obs.Counter.incr c_patched;
      Repaired { tree; tier = Patched }
    | None -> (
      let migrated =
        Obs.Span.run "repair.migrate" @@ fun () ->
        try_migrate ~eng cp ~link_down ~server_down net victim
      in
      match migrated with
      | Some tree ->
        Obs.Counter.incr c_migrated;
        Repaired { tree; tier = Migrated }
      | None -> (
        let readmitted =
          Obs.Span.run "repair.readmit" @@ fun () ->
          Admission.admit p victim.Pseudo_tree.request
        in
        match readmitted with
        | Ok tree ->
          Obs.Counter.incr c_readmitted;
          Repaired { tree; tier = Readmitted }
        | Error msg ->
          Obs.Counter.incr c_dropped;
          Dropped msg))
  in
  if !Obs.enabled then Obs.Histogram.observe h_attempt (!Obs.clock () -. t0);
  result
