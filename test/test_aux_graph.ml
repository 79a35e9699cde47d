module Aux = Nfv_multicast.Aux_graph
module G = Mcgraph.Graph
module P = Mcgraph.Paths
module R = Oracle.Ref_paths
module N = Sdn.Network
module Rng = Topology.Rng

let instance seed =
  let net, rng = Tutil.random_network seed ~lo:6 ~hi:25 in
  let request = Tutil.random_request rng net ~id:0 in
  let aux =
    Aux.build ~k:3 ~engine:(Tutil.offline_engine net request) ~net ~request
      ~candidate_servers:(N.servers net) ()
  in
  (net, request, aux, rng)

(* the materialised [G_k^i] over every server, the reference for its
   ids, its distances and KMB's edges *)
let ext_of net = Oracle.Ref_aux.extended (N.graph net) (N.servers net)

(* Node and edge ids are those of the materialised graph: virtual edge
   [m + i] joins the virtual node to candidate [i], and ids from
   [m + |candidates|] on are no edge at all. *)
let test_structure () =
  let net, _, aux, _ = instance 1 in
  let g = ext_of net in
  let m = N.m net and nc = N.server_count net in
  Alcotest.(check int) "virtual node id" (G.n g - 1) (Aux.virtual_node aux);
  Alcotest.(check int) "base edge bound" m (Aux.base_edge_count aux);
  List.iter
    (fun v ->
      match Aux.virtual_edge_of_server aux v with
      | None -> Alcotest.fail "candidate lacks virtual edge"
      | Some e ->
        Alcotest.(check bool) "virtual id range" true (Aux.is_virtual_edge aux e);
        Alcotest.(check int) "round trip" v (Aux.server_of_virtual_edge aux e);
        Alcotest.(check (pair int int))
          "materialised endpoints" (Aux.virtual_node aux, v) (G.endpoints g e))
    (N.servers net);
  List.iter
    (fun e ->
      Alcotest.(check bool) "not virtual" false (Aux.is_virtual_edge aux e);
      Alcotest.check_raises "server_of_virtual_edge"
        (Invalid_argument "Aux_graph: not a virtual edge") (fun () ->
          ignore (Aux.server_of_virtual_edge aux e)))
    [ -1; 0; m - 1; m + nc; m + nc + 1 ]

let test_virtual_weight_formula () =
  let net, req, aux, _ = instance 2 in
  let b = req.Sdn.Request.bandwidth in
  let weight e = b *. N.link_unit_cost net e in
  let apsp = R.all_pairs (N.graph net) ~weight in
  List.iter
    (fun v ->
      let expect =
        R.apsp_dist apsp req.Sdn.Request.source v
        +. N.chain_cost net v req.Sdn.Request.chain
      in
      Tutil.assert_close "wv" expect (Aux.virtual_edge_weight aux v))
    (N.servers net)

let test_weight_function () =
  let net, req, aux, _ = instance 3 in
  let servers = N.servers net in
  let subset = [ List.hd servers ] in
  let sm = Aux.subset_metric aux subset in
  (* base edges cost b·c_e *)
  let b = req.Sdn.Request.bandwidth in
  Tutil.assert_close "base edge" (b *. N.link_unit_cost net 0) (Aux.weight sm 0);
  (* chosen server's virtual edge has its wv; others are infinite *)
  let v = List.hd subset in
  let e = Option.get (Aux.virtual_edge_of_server aux v) in
  Tutil.assert_close "chosen virtual" (Aux.virtual_edge_weight aux v)
    (Aux.weight sm e);
  List.iter
    (fun v' ->
      if not (List.mem v' subset) then begin
        let e' = Option.get (Aux.virtual_edge_of_server aux v') in
        Alcotest.(check bool) "other virtual infinite" true
          (Aux.weight sm e' = infinity)
      end)
    servers

let test_subset_validation () =
  let net, _, aux, _ = instance 4 in
  let non_server =
    let rec find v = if N.is_server net v then find (v + 1) else v in
    find 0
  in
  Alcotest.check_raises "non-candidate"
    (Invalid_argument "Aux_graph.subset_metric: not a candidate server") (fun () ->
      ignore (Aux.subset_metric aux [ non_server ]))

(* The candidate index answers every node id, off the graph too: -1,
   the virtual node, one past it and a base node hosting no server. *)
let test_candidate_index () =
  let net, _, aux, _ = instance 4 in
  let non_server =
    let rec find v = if N.is_server net v then find (v + 1) else v in
    find 0
  in
  let server = List.hd (N.servers net) in
  List.iter
    (fun v ->
      Alcotest.(check (option int))
        "no virtual edge" None
        (Aux.virtual_edge_of_server aux v);
      Alcotest.check_raises "virtual_edge_weight"
        (Invalid_argument "Aux_graph.virtual_edge_weight: not a candidate")
        (fun () -> ignore (Aux.virtual_edge_weight aux v));
      Alcotest.check_raises "subset_metric"
        (Invalid_argument "Aux_graph.subset_metric: not a candidate server")
        (fun () -> ignore (Aux.subset_metric aux [ server; v ]));
      Alcotest.check_raises "redundant"
        (Invalid_argument "Aux_graph.redundant: not a candidate server")
        (fun () -> ignore (Aux.redundant aux [ server; v ])))
    [ -1; Aux.virtual_node aux; N.n net + 1; non_server ]

(* [to_pseudo_tree] refuses every edge set that is not a tree of
   [G_k^i] hanging off s'_k: a repeated base or virtual edge, a second
   server's virtual edge whose base path joins the first's subtree, an
   edge cut off from s'_k, no virtual edge at all. *)
let test_pseudo_tree_refusals () =
  let rec find seed =
    let net, req, aux, _ = instance seed in
    match Aux.reachable_servers aux with
    | v :: u :: _ -> (
      match Aux.steiner_tree (Aux.subset_metric aux [ v ]) with
      | Some edges when List.length edges > 1 -> (net, req, aux, v, u, edges)
      | _ -> find (seed + 1))
    | _ -> find (seed + 1)
  in
  let net, req, aux, v, u, edges = find 1 in
  ignore (Aux.to_pseudo_tree aux edges);
  let vedge x = Option.get (Aux.virtual_edge_of_server aux x) in
  let base = List.filter (fun e -> not (Aux.is_virtual_edge aux e)) edges in
  let ends e =
    let a, b = G.endpoints (N.graph net) e in
    [ a; b ]
  in
  let spanned = v :: List.concat_map ends base in
  let outside =
    List.find
      (fun e -> not (List.exists (fun x -> List.mem x spanned) (ends e)))
      (List.init (N.m net) Fun.id)
  in
  let u_to_v =
    Option.get (Mcgraph.Sp_engine.path (Tutil.offline_engine net req) u v)
  in
  List.iter
    (fun (what, bad) ->
      match Aux.to_pseudo_tree aux bad with
      | _ -> Alcotest.failf "accepted %s" what
      | exception Invalid_argument _ -> ())
    [
      ("a repeated base edge", List.hd base :: edges);
      ("a repeated virtual edge", vedge v :: edges);
      ("a cycle through s'_k", (vedge u :: u_to_v) @ edges);
      ("an edge cut off from s'_k", outside :: edges);
      ("no virtual edge", base);
    ]

(* the central property: the closed-form hub metric equals Dijkstra on the
   materialised auxiliary graph, for every subset of up to 3 servers *)
let prop_metric_exact =
  Tutil.qtest ~count:80 "hub metric = dijkstra on materialised graph"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, _, aux, _ = instance seed in
      let servers = Aux.reachable_servers aux in
      let subsets = Oracle.Subsets.subsets_up_to servers 3 in
      let ext = ext_of net in
      List.for_all
        (fun subset ->
          let sm = Aux.subset_metric aux subset in
          let weight = Aux.weight (Aux.subset_metric aux subset) in
          let ok = ref true in
          (* compare distances from a few nodes including the virtual one *)
          let sources = [ Aux.virtual_node aux; 0; G.n ext - 2 ] in
          List.iter
            (fun s ->
              let spt = R.dijkstra ext ~weight ~source:s in
              for t = 0 to G.n ext - 1 do
                let d1 = Aux.dist sm s t and d2 = spt.P.dist.(t) in
                if
                  (d1 = infinity) <> (d2 = infinity)
                  || (d1 < infinity && Float.abs (d1 -. d2) > 1e-6)
                then ok := false
              done)
            sources;
          !ok)
        subsets)

(* extracted paths realise the reported distances *)
let prop_path_realises_dist =
  Tutil.qtest ~count:60 "aux path cost = aux dist"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, _, aux, rng = instance seed in
      let servers = Aux.reachable_servers aux in
      if servers = [] then true
      else begin
        let k = 1 + Rng.int rng (min 3 (List.length servers)) in
        let idx = Rng.sample_without_replacement rng k (List.length servers) in
        let subset = List.map (List.nth servers) idx in
        let sm = Aux.subset_metric aux subset in
        let ext = ext_of net in
        let ok = ref true in
        for _ = 1 to 15 do
          let x = Rng.int rng (G.n ext) and y = Rng.int rng (G.n ext) in
          match Aux.path sm x y with
          | None -> if Aux.dist sm x y < infinity then ok := false
          | Some edges ->
            let cost =
              List.fold_left (fun acc e -> acc +. Aux.weight sm e) 0.0 edges
            in
            if Float.abs (cost -. Aux.dist sm x y) > 1e-6 then ok := false;
            (* the edge list must be a walk x → y in the extended graph *)
            let rec walk node = function
              | [] -> node = y
              | e :: rest ->
                let u, v = G.endpoints ext e in
                if u = node then walk v rest
                else if v = node then walk u rest
                else false
            in
            if not (walk x edges) then ok := false
        done;
        !ok
      end)

(* steiner trees from the aux metric map back to valid pseudo-trees *)
let prop_pseudo_tree_valid =
  Tutil.qtest ~count:80 "aux steiner → valid pseudo-multicast tree"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, req, aux, rng = instance seed in
      let servers = Aux.reachable_servers aux in
      if servers = [] then true
      else begin
        let k = 1 + Rng.int rng (min 3 (List.length servers)) in
        let idx = Rng.sample_without_replacement rng k (List.length servers) in
        let subset = List.map (List.nth servers) idx in
        let sm = Aux.subset_metric aux subset in
        match Aux.steiner_tree sm with
        | None -> true (* destinations unreachable via this subset *)
        | Some edges -> (
          let pt = Aux.to_pseudo_tree aux edges in
          match Nfv_multicast.Pseudo_tree.validate net pt with
          | Ok () ->
            (* servers used must come from the subset *)
            List.for_all
              (fun v -> List.mem v subset)
              pt.Nfv_multicast.Pseudo_tree.servers
            && pt.Nfv_multicast.Pseudo_tree.request.Sdn.Request.id
               = req.Sdn.Request.id
          | Error _ -> false)
      end)

(* honest pseudo-tree cost equals the aux tree cost (no zero edges) *)
let prop_cost_agreement =
  Tutil.qtest ~count:80 "pseudo-tree cost = aux tree cost"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, _, aux, rng = instance seed in
      let servers = Aux.reachable_servers aux in
      if servers = [] then true
      else begin
        let subset = [ List.nth servers (Rng.int rng (List.length servers)) ] in
        let sm = Aux.subset_metric aux subset in
        match Aux.steiner_tree sm with
        | None -> true
        | Some edges ->
          let pt = Aux.to_pseudo_tree aux edges in
          Float.abs
            (Nfv_multicast.Pseudo_tree.cost net pt -. Aux.tree_cost sm edges)
          < 1e-6 *. (1.0 +. Aux.tree_cost sm edges)
      end)

(* the hub metric stays exact when capacity pruning removes edges *)
let prop_metric_exact_pruned =
  Tutil.qtest ~count:60 "hub metric = dijkstra under pruning"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:8 ~hi:20 in
      let request = Tutil.random_request rng net ~id:0 in
      (* randomly knock out ~30% of the edges, as residual pruning would *)
      let removed = Array.init (N.m net) (fun _ -> Rng.int rng 10 < 3) in
      let keep e = not removed.(e) in
      let aux =
        Aux.build ~k:3 ~engine:(Tutil.offline_engine ~keep net request) ~net
          ~request ~candidate_servers:(N.servers net) ()
      in
      let servers = Aux.reachable_servers aux in
      if servers = [] then true
      else begin
        let k = 1 + Rng.int rng (min 2 (List.length servers)) in
        let idx = Rng.sample_without_replacement rng k (List.length servers) in
        let subset = List.map (List.nth servers) idx in
        let sm = Aux.subset_metric aux subset in
        let ext = ext_of net in
        let weight = Aux.weight (Aux.subset_metric aux subset) in
        let ok = ref true in
        List.iter
          (fun s ->
            let spt = R.dijkstra ext ~weight ~source:s in
            for t = 0 to G.n ext - 1 do
              let d1 = Aux.dist sm s t and d2 = spt.P.dist.(t) in
              if
                (d1 = infinity) <> (d2 = infinity)
                || (d1 < infinity && Float.abs (d1 -. d2) > 1e-6)
              then ok := false
            done)
          [ Aux.virtual_node aux; 0 ];
        !ok
      end)

(* A non-hub row reads a_x(j) = min_i rx(h_i) + hd(i, j) off its hub
   vector; it must return the bits of the O(h²) double loop,
   min(rx(y), min_{i,j} (rx(h_i) + hd(i, j)) + row_j(y)), rebuilt here
   from the public hub-to-hub and base distances. Integer edge weights
   make equal-cost alternatives common. *)
let prop_dist_matches_quadratic =
  Tutil.qtest ~count:80 "non-hub dist = O(h^2) formula (bits)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:6 ~hi:25 in
      let request = Tutil.random_request rng net ~id:0 in
      let aux =
        if seed mod 2 = 0 then
          Aux.build ~k:3 ~engine:(Tutil.offline_engine net request) ~net ~request
            ~candidate_servers:(N.servers net) ()
        else
          Aux.build ~k:3
            ~engine:
              (Mcgraph.Sp_engine.create (N.graph net)
                 ~weight:(fun e -> float_of_int (1 + (e mod 3)))
                 ~epoch:(fun () -> N.weight_epoch net))
            ~net ~request ~candidate_servers:(N.servers net) ()
      in
      let servers = Aux.reachable_servers aux in
      let subsets = Oracle.Subsets.subsets_up_to servers 3 in
      let n = N.n net in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun subset ->
          let sm = Aux.subset_metric aux subset in
          let base_hubs = request.Sdn.Request.source :: subset in
          let hubs = Aux.virtual_node aux :: base_hubs in
          let ok = ref true in
          for x = 0 to n - 1 do
            for y = 0 to n - 1 do
              if not (List.mem x hubs || List.mem y hubs) then begin
                let best = ref (Aux.base_dist aux x y) in
                List.iter
                  (fun hi ->
                    List.iter
                      (fun hj ->
                        let c =
                          Aux.base_dist aux x hi +. Aux.dist sm hi hj
                          +. Aux.base_dist aux hj y
                        in
                        if c < !best then best := c)
                      base_hubs)
                  base_hubs;
                if bits (Aux.dist sm x y) <> bits !best then ok := false
              end
            done
          done;
          !ok)
        subsets)

(* Subset metrics of one request share its engine, its tables, its
   bottlenecks and the hub-vector buffer. Queried round-robin — every query comes
   after one to another metric, whose hub count may differ — each must
   give the bits, paths and Steiner tree it gives when queried alone
   (on a second build of the same request), and Dijkstra's distances on
   the materialised graph. Integer edge weights make ties common. *)
let prop_interleaved_subsets =
  Tutil.qtest ~count:60 "interleaved subset metrics = each alone"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:6 ~hi:25 in
      let request = Tutil.random_request rng net ~id:0 in
      let build () =
        if seed mod 2 = 0 then
          Aux.build ~k:3 ~engine:(Tutil.offline_engine net request) ~net ~request
            ~candidate_servers:(N.servers net) ()
        else
          Aux.build ~k:3
            ~engine:
              (Mcgraph.Sp_engine.create (N.graph net)
                 ~weight:(fun e -> float_of_int (1 + (e mod 3)))
                 ~epoch:(fun () -> N.weight_epoch net))
            ~net ~request ~candidate_servers:(N.servers net) ()
      in
      let shared = build () and alone = build () in
      let servers = Aux.reachable_servers shared in
      let all = Array.of_list (Oracle.Subsets.subsets_up_to servers 3) in
      let subsets =
        if all = [||] then []
        else List.init 6 (fun _ -> all.(Rng.int rng (Array.length all)))
      in
      let ext = ext_of net in
      let nodes = G.n ext in
      let pairs =
        List.init 40 (fun _ -> (Rng.int rng nodes, Rng.int rng nodes))
      in
      let answers sm (x, y) =
        (Int64.bits_of_float (Aux.dist sm x y), Aux.path sm x y)
      in
      (* round-robin: pair by pair, metric by metric *)
      let sms = List.map (Aux.subset_metric shared) subsets in
      let by_pair = List.map (fun p -> List.map (fun sm -> answers sm p) sms) pairs in
      let trees = List.map Aux.steiner_tree sms in
      let by_pair_again =
        List.map (fun p -> List.map (fun sm -> answers sm p) sms) pairs
      in
      List.for_all2
        (fun (k, subset) tree ->
          let sm = Aux.subset_metric alone subset in
          let solo = List.map (answers sm) pairs in
          let solo_tree = Aux.steiner_tree sm in
          let weight = Aux.weight (Aux.subset_metric alone subset) in
          let exact =
            List.for_all
              (fun (x, y) ->
                let d1 = Aux.dist sm x y in
                let d2 = (R.dijkstra ext ~weight ~source:x).P.dist.(y) in
                (d1 = infinity) = (d2 = infinity)
                && (d1 = infinity || Float.abs (d1 -. d2) <= 1e-6))
              pairs
          in
          solo = List.map (fun row -> List.nth row k) by_pair
          && solo = List.map (fun row -> List.nth row k) by_pair_again
          && solo_tree = tree && exact)
        (List.mapi (fun k subset -> (k, subset)) subsets)
        trees)

(* [path] expands the argmin the per-pair scan picks, not just some
   shortest walk: the first base hub pair (i, j), in hub order (the
   source, then the subset's servers), whose sum is strictly least —
   rx(h_i) + hd(i, j) + row_j(y) between two non-hub nodes, with the
   direct base path as the incumbent; one leg fewer when x or y is
   itself a hub. The expected edges are the engine's base legs around
   the hub-to-hub path. Integer weights make ties common; subsets
   holding the source are left out, so each hub has one index. *)
let prop_path_argmin =
  Tutil.qtest ~count:60 "aux path = first argmin's legs"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:6 ~hi:25 in
      let request = Tutil.random_request rng net ~id:0 in
      let engine =
        Mcgraph.Sp_engine.create (N.graph net)
          ~weight:(fun e -> float_of_int (1 + (e mod 3)))
          ~epoch:(fun () -> N.weight_epoch net)
      in
      let aux =
        Aux.build ~k:3 ~engine ~net ~request ~candidate_servers:(N.servers net) ()
      in
      let src = request.Sdn.Request.source in
      let servers = List.filter (( <> ) src) (Aux.reachable_servers aux) in
      let base u v = Option.get (Mcgraph.Sp_engine.path engine u v) in
      let bd = Mcgraph.Sp_engine.dist engine in
      let nodes = G.n (ext_of net) in
      List.for_all
        (fun subset ->
          let sm = Aux.subset_metric aux subset in
          let hubs = src :: subset in
          let is_hub v = v = Aux.virtual_node aux || List.mem v hubs in
          let hub_path u v = Option.get (Aux.path sm u v) in
          let expected x y =
            (* the incumbent and the candidates, each a sum and its edges *)
            let direct =
              if is_hub x && is_hub y then (Aux.dist sm x y, fun () -> hub_path x y)
              else if is_hub x || is_hub y then (infinity, fun () -> [])
              else (bd x y, fun () -> base x y)
            in
            let cands =
              if is_hub x && is_hub y then []
              else if is_hub x then
                List.map
                  (fun j ->
                    (Aux.dist sm x j +. bd j y, fun () -> hub_path x j @ base j y))
                  hubs
              else if is_hub y then
                List.map
                  (fun i ->
                    (bd x i +. Aux.dist sm i y, fun () -> base x i @ hub_path i y))
                  hubs
              else
                List.concat_map
                  (fun i ->
                    List.map
                      (fun j ->
                        ( bd x i +. Aux.dist sm i j +. bd j y,
                          fun () -> base x i @ hub_path i j @ base j y ))
                      hubs)
                  hubs
            in
            let c, edges =
              List.fold_left
                (fun (bc, be) (c, e) -> if c < bc then (c, e) else (bc, be))
                direct cands
            in
            if x = y then Some [] else if c = infinity then None else Some (edges ())
          in
          List.for_all
            (fun _ ->
              let x = Rng.int rng nodes and y = Rng.int rng nodes in
              Aux.path sm x y = expected x y)
            (List.init 30 Fun.id))
        (Oracle.Subsets.subsets_up_to servers 3))

(* [steiner_tree] against KMB rebuilt from lists: the closure MST of
   [Mst.prim_metric] over [dist], each closure edge expanded with
   [path]'s list, deduplicated, then the reference Kruskal over
   [weight sm] and the reference prune. The metrics of one request are
   priced round-robin, forwards and back, and more are built after the
   engine's weight epoch moves, so a weight vector or pair buffer left
   over from another subset or epoch would show. Integer weights make
   ties common. *)
let prop_steiner_tree_matches_lists =
  Tutil.qtest ~count:60 "steiner_tree = list reference (interleaved)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:6 ~hi:25 in
      let request = Tutil.random_request rng net ~id:0 in
      let epoch = ref 0 in
      let engine =
        Mcgraph.Sp_engine.create (N.graph net)
          ~weight:(fun e -> float_of_int (1 + ((e + !epoch) mod 3)))
          ~epoch:(fun () -> !epoch)
      in
      let aux =
        Aux.build ~k:3 ~engine ~net ~request ~candidate_servers:(N.servers net) ()
      in
      let ext = ext_of net in
      let terminals =
        List.sort_uniq compare
          (Aux.virtual_node aux :: request.Sdn.Request.destinations)
      in
      let reference sm =
        match
          Mcgraph.Mst.prim_metric ~points:(Array.of_list terminals)
            ~dist:(Aux.dist sm)
        with
        | None -> None
        | Some closure ->
          let expanded =
            List.concat_map (fun (a, b) -> Option.get (Aux.path sm a b)) closure
          in
          let sub = Oracle.Ref_kmb.dedup_edges expanded in
          let mst2 = Oracle.Ref_kmb.kruskal_edges ext ~weight:(Aux.weight sm) sub in
          Some (Oracle.Ref_kmb.prune ext ~terminals mst2)
      in
      let all =
        Array.of_list (Oracle.Subsets.subsets_up_to (Aux.reachable_servers aux) 3)
      in
      let metrics () =
        List.init 5 (fun _ ->
            Aux.subset_metric aux all.(Rng.int rng (Array.length all)))
      in
      let priced sms =
        List.for_all (fun sm -> Aux.steiner_tree sm = reference sm) sms
      in
      all = [||]
      || begin
        let sms = metrics () in
        priced sms
        && priced (List.rev sms)
        && begin
          incr epoch;
          priced (metrics ())
        end
      end)

(* The point and hub tables change no bit: for every subset of at most
   K = 3 candidates, [dist] (bits) and [path] (edges) between every two
   points equal the engine-row formula of [Oracle.Ref_aux]. A destination
   is always a candidate, the source on two seeds in three. Every subset
   is checked twice, the second time with the tables read; on odd seeds
   the engine's weight epoch moves in between, so rows left over from
   the first epoch would show. Integer weights and placement costs on
   odd seeds make ties common, so an argmin scanned in another hub order
   shows in the paths. *)
let prop_tables_match_engine_rows =
  Tutil.qtest ~count:60 "table metric = engine-row reference (bits, paths)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net, rng = Tutil.random_network seed ~lo:6 ~hi:25 in
      let request = Tutil.random_request rng net ~id:0 in
      let src = request.Sdn.Request.source
      and dsts = request.Sdn.Request.destinations in
      let epoch = ref 0 in
      let engine =
        if seed mod 2 = 0 then Tutil.offline_engine net request
        else
          Mcgraph.Sp_engine.create (N.graph net)
            ~weight:(fun e -> float_of_int (1 + ((e + !epoch) mod 3)))
            ~epoch:(fun () -> !epoch)
      in
      let extra = List.hd dsts :: (if seed mod 3 <> 0 then [ src ] else []) in
      let aux =
        Aux.build ~k:3 ~engine
          ~placement_cost:(fun v -> float_of_int (v mod 3))
          ~net ~request
          ~candidate_servers:(List.sort_uniq Int.compare (extra @ N.servers net))
          ()
      in
      let points = Aux.virtual_node aux :: dsts in
      let bits = Int64.bits_of_float in
      let subsets = Oracle.Subsets.subsets_up_to (Aux.reachable_servers aux) 3 in
      let sweep () =
        List.for_all
          (fun subset ->
            let sm = Aux.subset_metric aux subset in
            let m = Oracle.Ref_aux.make aux ~engine ~source:src subset in
            List.for_all
              (fun x ->
                List.for_all
                  (fun y ->
                    bits (Aux.dist sm x y) = bits (Oracle.Ref_aux.dist m x y)
                    && Aux.path sm x y = Oracle.Ref_aux.path m x y)
                  points)
              points)
          subsets
      in
      sweep ()
      && begin
        incr epoch;
        sweep ()
      end)

let () =
  Alcotest.run "aux_graph"
    [
      ( "unit",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "virtual weight formula" `Quick
            test_virtual_weight_formula;
          Alcotest.test_case "weight function" `Quick test_weight_function;
          Alcotest.test_case "subset validation" `Quick test_subset_validation;
          Alcotest.test_case "candidate index" `Quick test_candidate_index;
          Alcotest.test_case "pseudo-tree refusals" `Quick test_pseudo_tree_refusals;
        ] );
      ( "property",
        [
          prop_metric_exact;
          prop_metric_exact_pruned;
          prop_path_realises_dist;
          prop_pseudo_tree_valid;
          prop_cost_agreement;
          prop_dist_matches_quadratic;
          prop_interleaved_subsets;
          prop_path_argmin;
          prop_steiner_tree_matches_lists;
          prop_tables_match_engine_rows;
        ] );
    ]
