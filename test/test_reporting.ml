(* DOT export, table rendering and CSV export. *)

module Dot = Mcgraph.Dot
module E = Experiments.Exp_common

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- DOT --- *)

let test_dot_graph () =
  let g = Mcgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let dot = Dot.graph ~name:"test" g in
  Alcotest.(check bool) "header" true (contains dot "graph \"test\" {");
  Alcotest.(check bool) "edge 0-1" true (contains dot "0 -- 1");
  Alcotest.(check bool) "edge 1-2" true (contains dot "1 -- 2");
  Alcotest.(check bool) "closed" true (contains dot "}")

let test_dot_highlights () =
  let g = Mcgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let dot = Dot.graph ~highlight_edges:[ 1 ] ~highlight_nodes:[ 2 ] g in
  Alcotest.(check bool) "edge colored" true (contains dot "penwidth");
  Alcotest.(check bool) "node doubled" true (contains dot "doublecircle")

let test_dot_labels () =
  let g = Mcgraph.Graph.of_edges ~n:2 [ (0, 1) ] in
  let dot =
    Dot.graph ~node_label:(fun v -> Printf.sprintf "sw%d" v)
      ~edge_label:(fun e -> Printf.sprintf "e%d" e)
      g
  in
  Alcotest.(check bool) "node label" true (contains dot "sw1");
  Alcotest.(check bool) "edge label" true (contains dot "e0")

let test_dot_tree () =
  let g = Mcgraph.Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let dot = Dot.tree g ~root:0 [ 0; 1 ] in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "oriented edge" true (contains dot "0 -> 1")

(* --- figure rendering --- *)

let sample_figure =
  {
    E.id = "t1";
    title = "demo";
    xlabel = "x";
    ylabel = "y";
    series =
      [
        { E.label = "alpha"; points = [ (1.0, 10.0); (2.0, 20.0) ] };
        { E.label = "beta"; points = [ (1.0, 11.0) ] };
      ];
    notes = [ "a note" ];
  }

let test_render_table () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  E.render ppf sample_figure;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "title" true (contains out "t1: demo");
  Alcotest.(check bool) "note" true (contains out "# a note");
  Alcotest.(check bool) "series" true (contains out "alpha");
  (* missing point shows as dash *)
  Alcotest.(check bool) "missing cell" true (contains out "-")

let test_csv () =
  let csv = E.to_csv sample_figure in
  Alcotest.(check bool) "comment" true (contains csv "# t1: demo");
  Alcotest.(check bool) "header" true (contains csv "x,alpha,beta");
  Alcotest.(check bool) "row" true (contains csv "1,10,11");
  (* missing cell is empty, line still has both commas *)
  Alcotest.(check bool) "sparse row" true (contains csv "2,20,")

let test_csv_escaping () =
  let fig =
    { sample_figure with E.series = [ { E.label = "a,b\"c"; points = [] } ] }
  in
  let csv = E.to_csv fig in
  Alcotest.(check bool) "quoted" true (contains csv "\"a,b\"\"c\"")

let test_write_csv () =
  let dir = Filename.temp_file "nfvm" "" in
  Sys.remove dir;
  let path = E.write_csv ~dir sample_figure in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "named by id" true (contains path "t1.csv");
  Sys.remove path;
  Sys.rmdir dir

(* regression: --csv DIR with a multi-level DIR used to fail because only
   the last path segment was created *)
let test_write_csv_nested () =
  let root = Filename.temp_file "nfvm" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "nested") "deep" in
  let path = E.write_csv ~dir sample_figure in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  (* idempotent on an existing tree *)
  E.ensure_dir dir;
  Sys.remove path;
  Sys.rmdir dir;
  Sys.rmdir (Filename.concat root "nested");
  Sys.rmdir root

(* --- helpers --- *)

let test_mean () =
  Alcotest.check Tutil.check_float "empty" 0.0 (E.mean []);
  Alcotest.check Tutil.check_float "values" 2.0 (E.mean [ 1.0; 2.0; 3.0 ])

let test_gtitm_degree () =
  (* the generator keeps average degree roughly flat across sizes *)
  let deg n =
    let t = E.gtitm_like (Topology.Rng.create 1) ~n in
    2.0 *. float_of_int (Topology.Topo.m t) /. float_of_int n
  in
  let d50 = deg 50 and d250 = deg 250 in
  Alcotest.(check bool) "flat degree" true
    (d50 > 2.0 && d50 < 7.0 && d250 > 2.0 && d250 < 7.0)

let () =
  Alcotest.run "reporting"
    [
      ( "dot",
        [
          Alcotest.test_case "graph" `Quick test_dot_graph;
          Alcotest.test_case "highlights" `Quick test_dot_highlights;
          Alcotest.test_case "labels" `Quick test_dot_labels;
          Alcotest.test_case "tree" `Quick test_dot_tree;
        ] );
      ( "figures",
        [
          Alcotest.test_case "render table" `Quick test_render_table;
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
          Alcotest.test_case "write csv" `Quick test_write_csv;
          Alcotest.test_case "write csv nested dir" `Quick test_write_csv_nested;
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "gtitm degree" `Quick test_gtitm_degree;
        ] );
    ]
