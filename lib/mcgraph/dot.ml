let default_label v = string_of_int v

let graph ?(name = "G") ?(node_label = default_label) ?edge_label
    ?(highlight_edges = []) ?(highlight_nodes = []) g =
  let buf = Buffer.create 1024 in
  let he = Hashtbl.create 16 and hn = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace he e ()) highlight_edges;
  List.iter (fun v -> Hashtbl.replace hn v ()) highlight_nodes;
  Buffer.add_string buf (Printf.sprintf "graph \"%s\" {\n" name);
  Buffer.add_string buf "  node [shape=circle, fontsize=10];\n";
  for v = 0 to Graph.n g - 1 do
    let extra = if Hashtbl.mem hn v then ", shape=doublecircle, color=red" else "" in
    Buffer.add_string buf
      (Printf.sprintf "  %d [label=\"%s\"%s];\n" v (node_label v) extra)
  done;
  Graph.iter_edges g (fun e u v ->
      let label =
        match edge_label with
        | Some f -> Printf.sprintf " label=\"%s\"," (f e)
        | None -> ""
      in
      let extra =
        if Hashtbl.mem he e then
          Printf.sprintf " [%s color=red, penwidth=2.0]" label
        else if label = "" then ""
        else Printf.sprintf " [%s]" label
      in
      Buffer.add_string buf (Printf.sprintf "  %d -- %d%s;\n" u v extra));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let tree ?(name = "T") ?(node_label = default_label) g ~root edges =
  Tree.root g ~root edges;
  let nodes = Tree.nodes () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" name);
  Buffer.add_string buf "  node [shape=circle, fontsize=10];\n";
  List.iter
    (fun v ->
      let extra = if v = root then ", shape=doublecircle" else "" in
      Buffer.add_string buf
        (Printf.sprintf "  %d [label=\"%s\"%s];\n" v (node_label v) extra))
    nodes;
  List.iter
    (fun v ->
      if v <> root then
        Buffer.add_string buf (Printf.sprintf "  %d -> %d;\n" (Tree.parent v) v))
    nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
