module N = Sdn.Network
module Pt = Nfv_multicast.Pseudo_tree
module Vnf = Sdn.Vnf
module Rng = Topology.Rng

(* a 5-node path network 0-1-2-3-4 with a server at 2, unit costs *)
let fixture () =
  let rng = Rng.create 1 in
  let topo =
    Topology.Topo.make ~name:"path"
      (Mcgraph.Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 4) ])
  in
  N.make
    ~profile:(N.uniform_profile ~link_capacity:1000.0 ~server_capacity:8000.0)
    ~rng ~servers:[ 2 ] topo

let request () =
  Sdn.Request.make ~id:7 ~source:0 ~destinations:[ 4 ] ~bandwidth:10.0
    ~chain:[ Vnf.Nat ]

let simple_tree () =
  let req = request () in
  Pt.make ~request:req ~servers:[ 2 ]
    ~edge_uses:[ (0, 1); (1, 1); (2, 1); (3, 1) ]
    ~routes:[ (4, { Pt.to_server = [ 0; 1 ]; server = 2; onward = [ 2; 3 ] }) ]

let test_cost () =
  let net = fixture () in
  let t = simple_tree () in
  (* 4 edges × b=10 × unit cost 1 + chain NAT 25 MHz × unit cost 1 *)
  Alcotest.check Tutil.check_float "total" 65.0 (Pt.cost net t);
  Alcotest.(check int) "traversals" 4 (Pt.total_edge_traversals t)

let test_validate_ok () =
  let net = fixture () in
  match Pt.validate net (simple_tree ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid: %s" e

let test_validate_detects_wrong_server () =
  let net = fixture () in
  let req = request () in
  let t =
    Pt.make ~request:req ~servers:[ 2 ]
      ~edge_uses:[ (0, 1); (1, 1); (2, 1); (3, 1) ]
      (* route claims processing at node 3, which is not a placement *)
      ~routes:[ (4, { Pt.to_server = [ 0; 1 ]; server = 3; onward = [ 2; 3 ] }) ]
  in
  match Pt.validate net t with
  | Ok () -> Alcotest.fail "should reject: unplaced server"
  | Error _ -> ()

let test_validate_detects_broken_walk () =
  let net = fixture () in
  let req = request () in
  let t =
    Pt.make ~request:req ~servers:[ 2 ]
      ~edge_uses:[ (0, 1); (1, 1); (2, 1); (3, 1) ]
      (* to_server skips edge 1, so the walk breaks at node 1 *)
      ~routes:[ (4, { Pt.to_server = [ 0 ]; server = 2; onward = [ 2; 3 ] }) ]
  in
  match Pt.validate net t with
  | Ok () -> Alcotest.fail "should reject: broken walk"
  | Error _ -> ()

let test_validate_detects_missing_route () =
  let net = fixture () in
  let req = request () in
  let t = Pt.make ~request:req ~servers:[ 2 ] ~edge_uses:[ (0, 1) ] ~routes:[] in
  match Pt.validate net t with
  | Ok () -> Alcotest.fail "should reject: no witness"
  | Error _ -> ()

let test_validate_detects_out_of_support () =
  let net = fixture () in
  let req = request () in
  let t =
    Pt.make ~request:req ~servers:[ 2 ]
      ~edge_uses:[ (0, 1); (1, 1) ] (* onward edges 2,3 missing from support *)
      ~routes:[ (4, { Pt.to_server = [ 0; 1 ]; server = 2; onward = [ 2; 3 ] }) ]
  in
  match Pt.validate net t with
  | Ok () -> Alcotest.fail "should reject: support"
  | Error _ -> ()

let test_edge_uses_of_list () =
  Alcotest.(check (list (pair int int))) "multiset" [ (1, 2); (3, 1); (7, 3) ]
    (Pt.edge_uses_of_list [ 7; 1; 3; 7; 1; 7 ])

let test_make_merges_repeats () =
  let req = request () in
  let t =
    Pt.make ~request:req ~servers:[ 2 ] ~edge_uses:[ (0, 1); (0, 2); (1, 1) ]
      ~routes:[]
  in
  Alcotest.(check (list (pair int int))) "merged" [ (0, 3); (1, 1) ] t.Pt.edge_uses

(* [make]'s fast path keeps a strictly ascending list as it is; any
   other order or repeat goes through the expand-and-merge *)
let test_make_fast_path () =
  let req = request () in
  let uses l = (Pt.make ~request:req ~servers:[ 2 ] ~edge_uses:l ~routes:[]).Pt.edge_uses in
  let ascending = [ (0, 2); (1, 1); (3, 4) ] in
  Alcotest.(check bool) "ascending kept as is" true (uses ascending == ascending);
  List.iter
    (fun l ->
      Alcotest.(check (list (pair int int))) "same merged uses" ascending (uses l))
    [
      [ (3, 4); (0, 2); (1, 1) ];
      [ (0, 1); (1, 1); (0, 1); (3, 4) ];
      [ (0, 2); (1, 1); (3, 1); (3, 3) ];
    ];
  Alcotest.check_raises "bad multiplicity in ascending uses"
    (Invalid_argument "Pseudo_tree.make: non-positive multiplicity") (fun () ->
      ignore (uses [ (0, 1); (1, 0); (2, 1) ]));
  Alcotest.check_raises "negative multiplicity"
    (Invalid_argument "Pseudo_tree.make: non-positive multiplicity") (fun () ->
      ignore (uses [ (0, 1); (1, -2) ]))

let test_make_validation () =
  let req = request () in
  Alcotest.check_raises "no servers" (Invalid_argument "Pseudo_tree.make: no servers")
    (fun () -> ignore (Pt.make ~request:req ~servers:[] ~edge_uses:[] ~routes:[]));
  Alcotest.check_raises "bad multiplicity"
    (Invalid_argument "Pseudo_tree.make: non-positive multiplicity") (fun () ->
      ignore (Pt.make ~request:req ~servers:[ 2 ] ~edge_uses:[ (0, 0) ] ~routes:[]))

let test_allocation () =
  let t = simple_tree () in
  let alloc = Pt.allocation t in
  Alcotest.(check int) "link entries" 4 (List.length alloc.N.links);
  List.iter
    (fun (_, amt) -> Alcotest.check Tutil.check_float "b per use" 10.0 amt)
    alloc.N.links;
  Alcotest.(check (list (pair int (float 1e-6)))) "node demand" [ (2, 25.0) ]
    alloc.N.nodes

let test_double_traversal_allocation () =
  let req = request () in
  let t = Pt.make ~request:req ~servers:[ 2 ] ~edge_uses:[ (0, 2) ] ~routes:[] in
  let alloc = Pt.allocation t in
  Alcotest.(check (list (pair int (float 1e-6)))) "2b on double use" [ (0, 20.0) ]
    alloc.N.links

let () =
  Alcotest.run "pseudo_tree"
    [
      ( "unit",
        [
          Alcotest.test_case "cost decomposition" `Quick test_cost;
          Alcotest.test_case "validate accepts" `Quick test_validate_ok;
          Alcotest.test_case "rejects unplaced server" `Quick
            test_validate_detects_wrong_server;
          Alcotest.test_case "rejects broken walk" `Quick
            test_validate_detects_broken_walk;
          Alcotest.test_case "rejects missing witness" `Quick
            test_validate_detects_missing_route;
          Alcotest.test_case "rejects out-of-support witness" `Quick
            test_validate_detects_out_of_support;
          Alcotest.test_case "edge_uses_of_list" `Quick test_edge_uses_of_list;
          Alcotest.test_case "make merges repeats" `Quick test_make_merges_repeats;
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "make fast path" `Quick test_make_fast_path;
          Alcotest.test_case "allocation" `Quick test_allocation;
          Alcotest.test_case "double traversal allocation" `Quick
            test_double_traversal_allocation;
        ] );
    ]
