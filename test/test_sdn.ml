module N = Sdn.Network
module Vnf = Sdn.Vnf
module Rng = Topology.Rng
module Cm = Nfv_multicast.Cost_model

let mk_net ?(seed = 1) ?(n = 20) () =
  let rng = Rng.create seed in
  let topo = Topology.Waxman.generate ~alpha:0.5 ~beta:0.4 rng ~n in
  N.make_random_servers ~rng topo

(* --- vnf --- *)

let test_vnf_catalog () =
  Alcotest.(check int) "five kinds" 5 (Array.length Vnf.all_kinds);
  Array.iter
    (fun k ->
      Alcotest.(check bool) "positive demand" true (Vnf.demand_mhz k > 0.0);
      Alcotest.(check (option bool)) "round-trip" (Some true)
        (Option.map (fun k' -> k' = k) (Vnf.kind_of_string (Vnf.kind_to_string k))))
    Vnf.all_kinds;
  Alcotest.(check (option bool)) "unknown kind" None
    (Option.map (fun _ -> true) (Vnf.kind_of_string "quic-proxy"))

let test_chain_demand () =
  let c = [ Vnf.Nat; Vnf.Firewall; Vnf.Ids ] in
  Alcotest.check Tutil.check_float "sums" 145.0 (Vnf.chain_demand_mhz c);
  Alcotest.(check string) "render" "<NAT, Firewall, IDS>" (Vnf.chain_to_string c);
  Alcotest.check_raises "empty" (Invalid_argument "Vnf.chain_demand_mhz: empty chain")
    (fun () -> ignore (Vnf.chain_demand_mhz []))

let test_random_chain () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let c = Vnf.random_chain rng in
    let len = List.length c in
    Alcotest.(check bool) "length 1-3" true (len >= 1 && len <= 3);
    Alcotest.(check int) "distinct" len (List.length (List.sort_uniq compare c))
  done

(* --- request --- *)

let test_request_validation () =
  let ok =
    Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 1; 2 ] ~bandwidth:100.0
      ~chain:[ Vnf.Nat ]
  in
  Alcotest.(check int) "terminals" 2 (Sdn.Request.terminal_count ok);
  Alcotest.check Tutil.check_float "demand" 25.0 (Sdn.Request.demand_mhz ok);
  Alcotest.check_raises "no dest" (Invalid_argument "Request.make: no destinations")
    (fun () ->
      ignore
        (Sdn.Request.make ~id:0 ~source:0 ~destinations:[] ~bandwidth:1.0
           ~chain:[ Vnf.Nat ]));
  Alcotest.check_raises "dup dest"
    (Invalid_argument "Request.make: duplicate destinations") (fun () ->
      ignore
        (Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 1; 1 ] ~bandwidth:1.0
           ~chain:[ Vnf.Nat ]));
  Alcotest.check_raises "source in dests"
    (Invalid_argument "Request.make: source among destinations") (fun () ->
      ignore
        (Sdn.Request.make ~id:0 ~source:1 ~destinations:[ 1 ] ~bandwidth:1.0
           ~chain:[ Vnf.Nat ]));
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Request.make: non-positive bandwidth") (fun () ->
      ignore
        (Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 1 ] ~bandwidth:0.0
           ~chain:[ Vnf.Nat ]));
  Alcotest.check_raises "empty chain"
    (Invalid_argument "Request.make: empty service chain") (fun () ->
      ignore
        (Sdn.Request.make ~id:0 ~source:0 ~destinations:[ 1 ] ~bandwidth:1.0 ~chain:[]))

(* --- network --- *)

let test_network_construction () =
  let net = mk_net () in
  Alcotest.(check int) "n" 20 (N.n net);
  Alcotest.(check int) "servers = 10%" 2 (N.server_count net);
  List.iter
    (fun v ->
      Alcotest.(check bool) "flag" true (N.is_server net v);
      Alcotest.(check bool) "capacity range" true
        (N.server_capacity net v >= 4000.0 && N.server_capacity net v <= 12000.0);
      Alcotest.check Tutil.check_float "fresh residual" (N.server_capacity net v)
        (N.server_residual net v))
    (N.servers net);
  for e = 0 to N.m net - 1 do
    if N.link_capacity net e < 1000.0 || N.link_capacity net e > 10000.0 then
      Alcotest.fail "link capacity out of paper range"
  done

let test_network_validation () =
  let rng = Rng.create 1 in
  let topo = Topology.Waxman.generate rng ~n:10 in
  Alcotest.check_raises "empty servers" (Invalid_argument "Network.make: no servers")
    (fun () -> ignore (N.make ~rng ~servers:[] topo));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Network.make: duplicate servers") (fun () ->
      ignore (N.make ~rng ~servers:[ 1; 1 ] topo));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Network.make: server out of range") (fun () ->
      ignore (N.make ~rng ~servers:[ 10 ] topo))

let test_non_server_access_rejected () =
  let net = mk_net () in
  let non_server =
    let rec find v = if N.is_server net v then find (v + 1) else v in
    find 0
  in
  Alcotest.check_raises "capacity of non-server"
    (Invalid_argument "Network.server_capacity: not a server") (fun () ->
      ignore (N.server_capacity net non_server))

(* the admission checks read residuals in place but keep the residual
   accessors' validation and messages *)
let test_admits_errors () =
  let net = mk_net () in
  let non_server =
    let rec find v = if N.is_server net v then find (v + 1) else v in
    find 0
  in
  List.iter
    (fun e ->
      Alcotest.check_raises "link_admits on a bad edge"
        (Invalid_argument "Network.link_residual: bad edge") (fun () ->
          ignore (N.link_admits net e 1.0)))
    [ -1; N.m net ];
  List.iter
    (fun v ->
      Alcotest.check_raises "server_admits on a non-server"
        (Invalid_argument "Network.server_residual: not a server") (fun () ->
          ignore (N.server_admits net v 1.0)))
    [ non_server; -1; N.n net ]

let test_allocation_roundtrip () =
  let net = mk_net () in
  let v = List.hd (N.servers net) in
  let alloc = { N.links = [ (0, 100.0); (1, 50.0) ]; nodes = [ (v, 500.0) ] } in
  (match N.allocate net alloc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "allocate: %s" e);
  Alcotest.check Tutil.check_float "link drained" (N.link_capacity net 0 -. 100.0)
    (N.link_residual net 0);
  Alcotest.check Tutil.check_float "server drained" (N.server_capacity net v -. 500.0)
    (N.server_residual net v);
  N.release net alloc;
  Alcotest.check Tutil.check_float "restored" (N.link_capacity net 0)
    (N.link_residual net 0);
  Alcotest.check Tutil.check_float "server restored" (N.server_capacity net v)
    (N.server_residual net v)

let test_allocation_atomic () =
  let net = mk_net () in
  let v = List.hd (N.servers net) in
  let too_much = N.link_capacity net 1 +. 1.0 in
  let alloc =
    { N.links = [ (0, 10.0); (1, too_much) ]; nodes = [ (v, 10.0) ] }
  in
  (match N.allocate net alloc with
  | Ok () -> Alcotest.fail "should fail"
  | Error _ -> ());
  (* nothing was drained *)
  Alcotest.check Tutil.check_float "edge 0 untouched" (N.link_capacity net 0)
    (N.link_residual net 0);
  Alcotest.check Tutil.check_float "server untouched" (N.server_capacity net v)
    (N.server_residual net v)

let test_allocation_aggregates_repeats () =
  let net = mk_net () in
  let cap = N.link_capacity net 0 in
  let half = (cap /. 2.0) +. 1.0 in
  (* two repeats exceed capacity together even though each alone fits *)
  let alloc = { N.links = [ (0, half); (0, half) ]; nodes = [] } in
  Alcotest.(check bool) "rejected" true (Result.is_error (N.allocate net alloc));
  Alcotest.check Tutil.check_float "nothing drained" cap (N.link_residual net 0)

let test_over_release_rejected () =
  let net = mk_net () in
  Alcotest.check_raises "double free"
    (Invalid_argument "Network.release: link over-release") (fun () ->
      N.release net { N.links = [ (0, 1.0) ]; nodes = [] });
  Alcotest.check_raises "server double free"
    (Invalid_argument "Network.release: server over-release") (fun () ->
      let v = List.hd (N.servers net) in
      N.release net { N.links = []; nodes = [ (v, 1.0) ] })

let clamps () =
  Nfv_obs.Obs.Counter.value (Nfv_obs.Obs.Counter.make "network.release_clamps")

let with_obs f =
  Nfv_obs.Obs.reset_all ();
  Nfv_obs.Obs.enabled := true;
  Fun.protect ~finally:(fun () -> Nfv_obs.Obs.enabled := false) f

let test_release_clamps () =
  with_obs @@ fun () ->
  let net = mk_net () in
  let v = List.hd (N.servers net) in
  let alloc = { N.links = [ (0, 100.0); (1, 50.0) ]; nodes = [ (v, 500.0) ] } in
  ignore (N.allocate net alloc);
  N.release net alloc;
  Alcotest.(check int) "an exact release clamps nothing" 0 (clamps ());
  ignore (N.allocate net alloc);
  (* inside the 1e-6 over-release slack on link 0 and on the server *)
  N.release net
    { N.links = [ (0, 100.0 +. 5e-7); (1, 50.0) ]; nodes = [ (v, 500.0 +. 5e-7) ] };
  Alcotest.(check int) "the link and the server clamp" 2 (clamps ());
  Alcotest.(check bool) "link back at capacity" true
    (N.link_residual net 0 = N.link_capacity net 0);
  Alcotest.(check bool) "server back at capacity" true
    (N.server_residual net v = N.server_capacity net v)

(* [aggregate]'s fast path (strictly ascending ids, amounts neither
   negative nor -0.0, taken as they are) against its table: the same
   demand written unsorted, split into repeats and with zero entries
   allocates and releases to the same residual bits and the same
   verdict *)
let prop_aggregate_fast_path =
  Tutil.qtest ~count:200 "ascending allocation = shuffled, split allocation"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let a = mk_net ~seed:(1 + (seed mod 7)) () in
      let b = mk_net ~seed:(1 + (seed mod 7)) () in
      let m = N.m a in
      let ids = List.filter (fun _ -> Rng.int rng 3 = 0) (List.init m Fun.id) in
      (* whole Mbps, so a split sums back exactly *)
      let amounts = List.map (fun e -> (e, float_of_int (Rng.int rng 2_000))) ids in
      let split =
        List.concat_map
          (fun (e, x) ->
            let part = Float.round (Rng.float rng x) in
            [ (e, part); (e, x -. part); (e, 0.0) ])
          amounts
      in
      let split = Array.of_list split in
      Rng.shuffle rng split;
      let servers = N.servers a in
      let nodes = List.map (fun v -> (v, float_of_int (Rng.int rng 5_000))) servers in
      let fast = { N.links = amounts; nodes } in
      let slow =
        {
          N.links = Array.to_list split;
          nodes = List.rev nodes @ List.map (fun v -> (v, 0.0)) servers;
        }
      in
      let bits net =
        ( Array.init m (fun e -> Int64.bits_of_float (N.link_residual net e)),
          List.map (fun v -> Int64.bits_of_float (N.server_residual net v)) servers )
      in
      let ra = N.allocate a fast and rb = N.allocate b slow in
      Result.is_ok ra = Result.is_ok rb
      && bits a = bits b
      && begin
        if Result.is_ok ra then begin
          N.release a fast;
          N.release b slow
        end;
        bits a = bits b
      end)

let test_aggregate_bad_amounts () =
  let net = mk_net () in
  let negative = Invalid_argument "Network: negative allocation amount" in
  Alcotest.check_raises "negative, ascending" negative (fun () ->
      ignore (N.allocate net { N.links = [ (0, 1.0); (1, -1.0) ]; nodes = [] }));
  Alcotest.check_raises "negative, unsorted" negative (fun () ->
      ignore (N.allocate net { N.links = [ (1, 1.0); (0, -1.0) ]; nodes = [] }));
  Alcotest.check_raises "negative release" negative (fun () ->
      N.release net { N.links = [ (0, -1.0) ]; nodes = [] });
  List.iter
    (fun links ->
      Alcotest.(check bool) "repeats still sum" true
        (Result.is_error (N.allocate net { N.links; nodes = [] })))
    [
      [ (1, 1.0); (0, N.link_capacity net 0); (0, 1.0) ];
      [ (0, N.link_capacity net 0); (0, 1.0); (1, 1.0) ];
    ];
  (match N.allocate net { N.links = [ (0, -0.0); (1, 0.0) ]; nodes = [] } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "zero amounts: %s" e);
  Alcotest.(check bool) "zero amounts drain nothing" true
    (N.link_residual net 0 = N.link_capacity net 0)

let test_reset () =
  let net = mk_net () in
  (match N.allocate net { N.links = [ (0, 100.0) ]; nodes = [] } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "allocate: %s" e);
  N.reset net;
  Alcotest.check Tutil.check_float "reset" (N.link_capacity net 0)
    (N.link_residual net 0)

let test_utilization_metrics () =
  let net = mk_net () in
  Alcotest.check Tutil.check_float "idle mean" 0.0 (N.mean_link_utilization net);
  Alcotest.check Tutil.check_float "idle jain" 1.0 (N.jain_fairness net);
  let cap = N.link_capacity net 0 in
  (match N.allocate net { N.links = [ (0, cap) ]; nodes = [] } with
  | Ok () -> ()
  | Error e -> Alcotest.failf "allocate: %s" e);
  Alcotest.check Tutil.check_float "max util" 1.0 (N.max_link_utilization net);
  Alcotest.(check bool) "jain drops under imbalance" true (N.jain_fairness net < 1.0)

let test_uniform_profile () =
  let rng = Rng.create 1 in
  let topo = Topology.Waxman.generate rng ~n:10 in
  let net =
    N.make
      ~profile:(N.uniform_profile ~link_capacity:1000.0 ~server_capacity:8000.0)
      ~rng ~servers:[ 0; 1 ] topo
  in
  for e = 0 to N.m net - 1 do
    Alcotest.check Tutil.check_float "uniform link" 1000.0 (N.link_capacity net e);
    Alcotest.check Tutil.check_float "unit cost" 1.0 (N.link_unit_cost net e)
  done;
  Alcotest.check Tutil.check_float "chain cost is demand" 145.0
    (N.chain_cost net 0 [ Vnf.Nat; Vnf.Firewall; Vnf.Ids ])

(* --- cost model --- *)

let test_cost_model_bounds () =
  Alcotest.check Tutil.check_float "idle" 0.0
    (Cm.normalized_weight ~capacity:100.0 ~residual:100.0 ~base:50.0);
  Alcotest.check Tutil.check_float "full" 49.0
    (Cm.normalized_weight ~capacity:100.0 ~residual:0.0 ~base:50.0)

let test_cost_model_monotone () =
  let prev = ref (-1.0) in
  for i = 0 to 10 do
    let r = 100.0 -. (10.0 *. float_of_int i) in
    let w = Cm.normalized_weight ~capacity:100.0 ~residual:r ~base:50.0 in
    Alcotest.(check bool) "monotone in utilisation" true (w > !prev);
    prev := w
  done

let test_cost_model_validation () =
  Alcotest.check_raises "base" (Invalid_argument "Cost_model: base must exceed 1")
    (fun () ->
      ignore (Cm.normalized_weight ~capacity:1.0 ~residual:1.0 ~base:1.0));
  Alcotest.check_raises "residual"
    (Invalid_argument "Cost_model: residual outside [0, capacity]") (fun () ->
      ignore (Cm.normalized_weight ~capacity:1.0 ~residual:2.0 ~base:2.0))

let test_cost_model_defaults () =
  let net = mk_net () in
  Alcotest.check Tutil.check_float "alpha = 2|V|" 40.0 (Cm.default_base net);
  Alcotest.check Tutil.check_float "sigma = |V|-1" 19.0 (Cm.default_sigma net)

(* property: exponential link cost grows with each allocation *)
let prop_link_weight_grows =
  Tutil.qtest ~count:60 "link weight strictly grows with allocations"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let net = mk_net ~seed:(seed + 1) () in
      let base = Cm.default_base net in
      let ok = ref true in
      let w0 = ref (Cm.link_weight net ~base 0) in
      for _ = 1 to 5 do
        let amount = N.link_residual net 0 /. 4.0 in
        if amount > 1.0 then begin
          (match N.allocate net { N.links = [ (0, amount) ]; nodes = [] } with
          | Ok () -> ()
          | Error _ -> ok := false);
          let w1 = Cm.link_weight net ~base 0 in
          if w1 <= !w0 then ok := false;
          w0 := w1
        end
      done;
      !ok)

let () =
  Alcotest.run "sdn"
    [
      ( "vnf",
        [
          Alcotest.test_case "catalog" `Quick test_vnf_catalog;
          Alcotest.test_case "chain demand" `Quick test_chain_demand;
          Alcotest.test_case "random chain" `Quick test_random_chain;
        ] );
      ("request", [ Alcotest.test_case "validation" `Quick test_request_validation ]);
      ( "network",
        [
          Alcotest.test_case "construction" `Quick test_network_construction;
          Alcotest.test_case "validation" `Quick test_network_validation;
          Alcotest.test_case "non-server access" `Quick test_non_server_access_rejected;
          Alcotest.test_case "admits errors" `Quick test_admits_errors;
          Alcotest.test_case "alloc/release round-trip" `Quick test_allocation_roundtrip;
          Alcotest.test_case "atomic failure" `Quick test_allocation_atomic;
          Alcotest.test_case "repeat aggregation" `Quick
            test_allocation_aggregates_repeats;
          Alcotest.test_case "over-release" `Quick test_over_release_rejected;
          Alcotest.test_case "release clamps" `Quick test_release_clamps;
          Alcotest.test_case "aggregate bad amounts" `Quick test_aggregate_bad_amounts;
          prop_aggregate_fast_path;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "utilisation metrics" `Quick test_utilization_metrics;
          Alcotest.test_case "uniform profile" `Quick test_uniform_profile;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "bounds" `Quick test_cost_model_bounds;
          Alcotest.test_case "monotone" `Quick test_cost_model_monotone;
          Alcotest.test_case "validation" `Quick test_cost_model_validation;
          Alcotest.test_case "paper defaults" `Quick test_cost_model_defaults;
        ] );
      ("property", [ prop_link_weight_grows ]);
    ]
