(* The heap inside [Paths.dijkstra_vec], driven through
   [Paths.For_testing]: the same insert-or-decrease, pop, sift and reset
   code the kernel runs. *)
module Heap = Mcgraph.Paths.For_testing

let priority h key =
  let keys, prio, _ = Heap.state h in
  let found = ref None in
  Array.iteri (fun i k -> if k = key then found := Some prio.(i)) keys;
  !found

let mem h key = Option.is_some (priority h key)
let is_empty h = let keys, _, _ = Heap.state h in keys = [||]

let test_empty () =
  let h = Heap.heap 10 in
  Alcotest.(check bool) "empty" true (is_empty h);
  Alcotest.(check (option (pair int (float 0.0)))) "pop" None (Heap.pop_min h)

let test_singleton () =
  let h = Heap.heap 4 in
  Heap.insert_or_decrease h ~key:2 5.0;
  Alcotest.(check bool) "mem" true (mem h 2);
  Alcotest.(check bool) "not mem" false (mem h 1);
  Alcotest.(check (option (float 0.0))) "priority" (Some 5.0) (priority h 2);
  Alcotest.(check (option (pair int (float 0.0)))) "pop" (Some (2, 5.0)) (Heap.pop_min h);
  Alcotest.(check bool) "empty after" true (is_empty h)

let test_ordering () =
  let h = Heap.heap 8 in
  List.iter (fun (k, p) -> Heap.insert_or_decrease h ~key:k p)
    [ (0, 3.0); (1, 1.0); (2, 2.0); (3, 0.5); (4, 9.0) ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some (k, _) ->
      order := k :: !order;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending priority order" [ 3; 1; 2; 0; 4 ]
    (List.rev !order)

let test_decrease () =
  let h = Heap.heap 4 in
  Heap.insert_or_decrease h ~key:0 10.0;
  Heap.insert_or_decrease h ~key:1 5.0;
  Heap.insert_or_decrease h ~key:0 1.0;
  Alcotest.(check (option (pair int (float 0.0)))) "decreased wins" (Some (0, 1.0))
    (Heap.pop_min h)

let test_insert_or_decrease () =
  let h = Heap.heap 4 in
  Heap.insert_or_decrease h ~key:1 5.0;
  Heap.insert_or_decrease h ~key:1 3.0;
  Heap.insert_or_decrease h ~key:1 7.0;
  Alcotest.(check (option (float 0.0))) "kept min" (Some 3.0) (priority h 1)

let test_clear () =
  let h = Heap.heap 4 in
  Heap.insert_or_decrease h ~key:0 1.0;
  Heap.insert_or_decrease h ~key:1 2.0;
  Heap.clear h;
  Alcotest.(check bool) "empty" true (is_empty h);
  Alcotest.(check bool) "key cleared" false (mem h 0);
  let _, _, pos = Heap.state h in
  Alcotest.(check bool) "every slot reset" true (Array.for_all (( = ) (-1)) pos);
  Heap.insert_or_decrease h ~key:0 3.0;
  Alcotest.(check (option (float 0.0))) "reusable" (Some 3.0) (priority h 0)

(* qcheck: popping everything yields priorities in sorted order *)
let prop_heapsort =
  Tutil.qtest "heap drains in sorted order"
    QCheck.(list_of_size (Gen.int_range 0 200) (float_range 0.0 100.0))
    (fun prios ->
      let n = List.length prios in
      let h = Heap.heap (max n 1) in
      List.iteri (fun i p -> Heap.insert_or_decrease h ~key:i p) prios;
      let rec drain acc =
        match Heap.pop_min h with
        | None -> List.rev acc
        | Some (_, p) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare prios)

(* qcheck: insert_or_decrease tracks the running minimum per key *)
let prop_running_min =
  Tutil.qtest "insert_or_decrease keeps per-key minimum"
    QCheck.(
      list_of_size (Gen.int_range 1 200)
        (pair (int_bound 19) (float_range 0.0 100.0)))
    (fun updates ->
      let h = Heap.heap 20 in
      let best = Hashtbl.create 16 in
      List.iter
        (fun (k, p) ->
          Heap.insert_or_decrease h ~key:k p;
          let cur = Option.value (Hashtbl.find_opt best k) ~default:infinity in
          Hashtbl.replace best k (Float.min cur p))
        updates;
      Hashtbl.fold
        (fun k expect ok -> ok && priority h k = Some expect)
        best true)

(* qcheck: mixed pops and inserts never violate the order invariant *)
let prop_mixed_ops =
  Tutil.qtest "interleaved pops return non-decreasing values vs remaining"
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range 0.0 50.0))
    (fun prios ->
      let n = List.length prios in
      let h = Heap.heap (2 * n) in
      let ok = ref true in
      List.iteri
        (fun i p ->
          Heap.insert_or_decrease h ~key:i p;
          if i mod 3 = 2 then begin
            match Heap.pop_min h with
            | None -> ()
            | Some (_, popped) ->
              (* popped must be <= every remaining priority *)
              let _, remaining, _ = Heap.state h in
              if Array.exists (fun q -> q < popped -. 1e-12) remaining then
                ok := false
          end)
        prios;
      !ok)

(* ---- state-for-state agreement with the swap-based reference ---- *)

module Ref = Oracle.Ref_heap

type op = Insert_or_decrease of int * float | Pop_min | Clear

let show_op = function
  | Insert_or_decrease (k, p) -> Printf.sprintf "insert_or_decrease %d %g" k p
  | Pop_min -> "pop_min"
  | Clear -> "clear"

let capacity = 20

(* heavy ties: mostly 0, a few small integers and infinity; keys run one
   past the capacity, which both heaps must reject without a change *)
let gen_op =
  let open QCheck.Gen in
  let prio =
    frequency
      [ (3, return 0.0); (6, map float_of_int (int_range 1 3));
        (2, return infinity); (1, float_range 0.0 4.0) ]
  in
  let key = int_bound capacity in
  frequency
    [
      (8, map2 (fun k p -> Insert_or_decrease (k, p)) key prio);
      (4, return Pop_min);
      (1, return Clear);
    ]

type result = Done | Popped of (int * float) option | Raised

let apply ~insert_or_decrease ~pop_min ~clear op =
  try
    match op with
    | Insert_or_decrease (k, p) -> insert_or_decrease k p; Done
    | Pop_min -> Popped (pop_min ())
    | Clear -> clear (); Done
  with Invalid_argument _ -> Raised

let prop_matches_swap_reference =
  Tutil.qtest ~count:500 "hole-based sifts = swap-based reference, state for state"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        Gen.(list_size (int_range 1 120) gen_op))
    (fun ops ->
      let h = Heap.heap capacity and r = Ref.create capacity in
      List.for_all
        (fun op ->
          let got =
            apply op
              ~insert_or_decrease:(fun key p -> Heap.insert_or_decrease h ~key p)
              ~pop_min:(fun () -> Heap.pop_min h)
              ~clear:(fun () -> Heap.clear h)
          in
          let want =
            apply op
              ~insert_or_decrease:(fun key p -> Ref.insert_or_decrease r ~key p)
              ~pop_min:(fun () -> Ref.pop_min r)
              ~clear:(fun () -> Ref.clear r)
          in
          got = want && Heap.state h = Ref.state r)
        ops)

let () =
  Alcotest.run "heap"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "decrease-key" `Quick test_decrease;
          Alcotest.test_case "insert_or_decrease" `Quick test_insert_or_decrease;
          Alcotest.test_case "clear" `Quick test_clear;
        ] );
      ( "property",
        [
          prop_heapsort;
          prop_running_min;
          prop_mixed_ops;
          prop_matches_swap_reference;
        ] );
    ]
