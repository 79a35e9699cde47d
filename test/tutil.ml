(* Shared helpers for the test suites. *)

module G = Mcgraph.Graph
module Rng = Topology.Rng

let qtest ?(count = 100) ?rand name gen prop =
  QCheck_alcotest.to_alcotest ?rand (QCheck.Test.make ~count ~name gen prop)

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

(* an Online_CP pricing over a fresh window: exponential mode and the
   network's default params unless given. One call per admit gives each
   request a private engine — the naive reference the shared-window
   runs are compared against. *)
let cp_pricing ?(mode = `Exponential) ?params ?avail net =
  let params =
    match params with
    | Some p -> p
    | None -> Nfv_multicast.Online_cp.default_params net
  in
  Nfv_multicast.Online_cp.pricing ?avail ~mode ~params
    (Nfv_multicast.Sp_window.create net)

(* Algorithm 1's base-edge price as a private engine, built here rather
   than through Appro_multi so the oracles that use it stay independent
   of the library's constructor: [b_k·c_e], and [infinity] on every link
   [keep] rejects. *)
let offline_engine ?(keep = fun _ -> true) net req =
  let b = req.Sdn.Request.bandwidth in
  Mcgraph.Sp_engine.create (Sdn.Network.graph net)
    ~weight:(fun e ->
      if keep e then b *. Sdn.Network.link_unit_cost net e else infinity)
    ~epoch:(fun () -> Sdn.Network.weight_epoch net)

(* checks that an edge set forms a tree (acyclic and connected) *)
let is_tree g edges =
  match edges with
  | [] -> true
  | e :: _ ->
    let u, _ = G.endpoints g e in
    (match Mcgraph.Tree.root g ~root:u edges with
    | () -> true
    | exception Invalid_argument _ -> false)

let check_float = Alcotest.float 1e-6

(* a repair tier's name in failure messages and pinned event digests *)
let tier_to_string = function
  | Nfv_multicast.Repair.Patched -> "patched"
  | Migrated -> "migrated"
  | Readmitted -> "readmitted"

let assert_close ?(eps = 1e-6) msg a b =
  if Float.abs (a -. b) > eps *. (1.0 +. Float.abs a +. Float.abs b) then
    Alcotest.failf "%s: %.9g <> %.9g" msg a b

(* ---- inputs and checks for the bit-identity properties ---- *)

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

(* equal on [dist] bits, [parent] and [parent_edge] *)
let same_spt (a : Mcgraph.Paths.spt) (b : Mcgraph.Paths.spt) =
  a.source = b.source
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.dist b.dist
  && a.parent = b.parent
  && a.parent_edge = b.parent_edge

(* graphs of alternating sizes, so a kernel's per-domain scratch meets
   stamps left by a larger graph: large, small, medium, small *)
let size_ladder = [ (60, 120); (2, 8); (20, 40); (2, 8) ]

(* Sdn.Fault's resource-exactness invariant, capacity(r) - residual(r)
   = confiscated(r) + Σ held on r to within 1e-6, for every link and
   server, with [trees] the live sessions' trees; [ctx] prefixes the
   failure report *)
let check_conservation ~ctx net fault trees =
  let module N = Sdn.Network in
  let links = Hashtbl.create 32 and nodes = Hashtbl.create 32 in
  let held tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0 in
  let bump tbl (k, v) = Hashtbl.replace tbl k (v +. held tbl k) in
  List.iter
    (fun tree ->
      let a = Nfv_multicast.Pseudo_tree.allocation tree in
      List.iter (bump links) a.N.links;
      List.iter (bump nodes) a.N.nodes)
    trees;
  let check what r ~allocated ~confiscated tbl =
    let held = confiscated +. held tbl r in
    if Float.abs (allocated -. held) > 1e-6 then
      QCheck.Test.fail_reportf
        "%s: %s %d allocated %.9g but confiscated+held = %.9g" ctx what r
        allocated held
  in
  for e = 0 to N.m net - 1 do
    check "link" e links
      ~allocated:(N.link_capacity net e -. N.link_residual net e)
      ~confiscated:(Sdn.Fault.confiscated_link fault e)
  done;
  List.iter
    (fun v ->
      check "server" v nodes
        ~allocated:(N.server_capacity net v -. N.server_residual net v)
        ~confiscated:(Sdn.Fault.confiscated_server fault v))
    (N.servers net)
