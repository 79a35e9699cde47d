module Uf = Mcgraph.Union_find

let test_initial () =
  let t = Uf.create 5 in
  Alcotest.(check int) "count" 5 (Uf.count t);
  for i = 0 to 4 do
    Alcotest.(check int) "self root" i (Uf.find t i);
    Alcotest.(check int) "singleton" 1 (Uf.size t i)
  done

let test_union () =
  let t = Uf.create 4 in
  Alcotest.(check bool) "merge" true (Uf.union t 0 1);
  Alcotest.(check bool) "redundant" false (Uf.union t 0 1);
  Alcotest.(check bool) "same" true (Uf.same t 0 1);
  Alcotest.(check bool) "different" false (Uf.same t 0 2);
  Alcotest.(check int) "count" 3 (Uf.count t);
  Alcotest.(check int) "size" 2 (Uf.size t 1)

let test_chain () =
  let t = Uf.create 100 in
  for i = 0 to 98 do
    ignore (Uf.union t i (i + 1))
  done;
  Alcotest.(check int) "one set" 1 (Uf.count t);
  Alcotest.(check int) "full size" 100 (Uf.size t 50);
  Alcotest.(check bool) "ends joined" true (Uf.same t 0 99)

let test_reset () =
  let t = Uf.create 6 in
  ignore (Uf.union t 0 1);
  ignore (Uf.union t 2 3);
  ignore (Uf.union t 1 3);
  Uf.reset t;
  Alcotest.(check int) "count" 6 (Uf.count t);
  for i = 0 to 5 do
    Alcotest.(check int) "self root" i (Uf.find t i);
    Alcotest.(check int) "singleton" 1 (Uf.size t i)
  done;
  ignore (Uf.union t 4 5);
  Alcotest.(check bool) "usable again" true (Uf.same t 4 5);
  Alcotest.(check bool) "old sets gone" false (Uf.same t 0 3)

let test_empty () =
  let t = Uf.create 0 in
  Alcotest.(check int) "count" 0 (Uf.count t)

let test_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Union_find.create: negative size") (fun () ->
      ignore (Uf.create (-3)))

(* qcheck: union-find agrees with a naive partition refinement *)
let prop_vs_naive =
  Tutil.qtest "matches naive partition"
    QCheck.(list_of_size (Gen.int_range 0 150) (pair (int_bound 29) (int_bound 29)))
    (fun unions ->
      let t = Uf.create 30 in
      let label = Array.init 30 Fun.id in
      let naive_union a b =
        let la = label.(a) and lb = label.(b) in
        if la <> lb then
          Array.iteri (fun i l -> if l = lb then label.(i) <- la) label
      in
      List.iter
        (fun (a, b) ->
          ignore (Uf.union t a b);
          naive_union a b)
        unions;
      let ok = ref true in
      for i = 0 to 29 do
        for j = 0 to 29 do
          if Uf.same t i j <> (label.(i) = label.(j)) then ok := false
        done
      done;
      !ok)

(* qcheck: count + total size invariants *)
let prop_sizes =
  Tutil.qtest "sizes partition the universe"
    QCheck.(list_of_size (Gen.int_range 0 100) (pair (int_bound 19) (int_bound 19)))
    (fun unions ->
      let t = Uf.create 20 in
      List.iter (fun (a, b) -> ignore (Uf.union t a b)) unions;
      (* every element's set size sums over distinct roots to 20 *)
      let roots = Hashtbl.create 16 in
      for i = 0 to 19 do
        Hashtbl.replace roots (Uf.find t i) (Uf.size t i)
      done;
      let total = Hashtbl.fold (fun _ s acc -> acc + s) roots 0 in
      total = 20 && Hashtbl.length roots = Uf.count t)

let () =
  Alcotest.run "union_find"
    [
      ( "unit",
        [
          Alcotest.test_case "initial" `Quick test_initial;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "negative size" `Quick test_negative;
        ] );
      ("property", [ prop_vs_naive; prop_sizes ]);
    ]
