module Heap = Mcgraph.Heap

let test_empty () =
  let h = Heap.create 10 in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check int) "size" 0 (Heap.size h);
  Alcotest.(check (option (pair int (float 0.0)))) "pop" None (Heap.pop_min h)

let test_singleton () =
  let h = Heap.create 4 in
  Heap.insert h ~key:2 5.0;
  Alcotest.(check bool) "mem" true (Heap.mem h 2);
  Alcotest.(check bool) "not mem" false (Heap.mem h 1);
  Alcotest.(check (option (float 0.0))) "priority" (Some 5.0) (Heap.priority h 2);
  Alcotest.(check (option (pair int (float 0.0)))) "pop" (Some (2, 5.0)) (Heap.pop_min h);
  Alcotest.(check bool) "empty after" true (Heap.is_empty h)

let test_ordering () =
  let h = Heap.create 8 in
  List.iter (fun (k, p) -> Heap.insert h ~key:k p)
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
  let h = Heap.create 4 in
  Heap.insert h ~key:0 10.0;
  Heap.insert h ~key:1 5.0;
  Heap.decrease h ~key:0 1.0;
  Alcotest.(check (option (pair int (float 0.0)))) "decreased wins" (Some (0, 1.0))
    (Heap.pop_min h)

let test_decrease_increase_rejected () =
  let h = Heap.create 4 in
  Heap.insert h ~key:0 1.0;
  Alcotest.check_raises "increase rejected"
    (Invalid_argument "Heap.decrease: priority increase") (fun () ->
      Heap.decrease h ~key:0 2.0)

let test_insert_duplicate_rejected () =
  let h = Heap.create 4 in
  Heap.insert h ~key:0 1.0;
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Heap.insert: key already present") (fun () ->
      Heap.insert h ~key:0 2.0)

let test_out_of_range () =
  let h = Heap.create 4 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Heap.insert: key out of range") (fun () ->
      Heap.insert h ~key:4 1.0)

let test_insert_or_decrease () =
  let h = Heap.create 4 in
  Heap.insert_or_decrease h ~key:1 5.0;
  Heap.insert_or_decrease h ~key:1 3.0;
  Heap.insert_or_decrease h ~key:1 7.0;
  Alcotest.(check (option (float 0.0))) "kept min" (Some 3.0) (Heap.priority h 1)

let test_clear () =
  let h = Heap.create 4 in
  Heap.insert h ~key:0 1.0;
  Heap.insert h ~key:1 2.0;
  Heap.clear h;
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "key cleared" false (Heap.mem h 0);
  Heap.insert h ~key:0 3.0;
  Alcotest.(check (option (float 0.0))) "reusable" (Some 3.0) (Heap.priority h 0)

let test_negative_capacity () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Heap.create: negative capacity") (fun () ->
      ignore (Heap.create (-1)))

(* qcheck: popping everything yields priorities in sorted order *)
let prop_heapsort =
  Tutil.qtest "heap drains in sorted order"
    QCheck.(list_of_size (Gen.int_range 0 200) (float_range 0.0 100.0))
    (fun prios ->
      let n = List.length prios in
      let h = Heap.create (max n 1) in
      List.iteri (fun i p -> Heap.insert h ~key:i p) prios;
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
      let h = Heap.create 20 in
      let best = Hashtbl.create 16 in
      List.iter
        (fun (k, p) ->
          Heap.insert_or_decrease h ~key:k p;
          let cur = Option.value (Hashtbl.find_opt best k) ~default:infinity in
          Hashtbl.replace best k (Float.min cur p))
        updates;
      Hashtbl.fold
        (fun k expect ok -> ok && Heap.priority h k = Some expect)
        best true)

(* qcheck: mixed pops and inserts never violate the order invariant *)
let prop_mixed_ops =
  Tutil.qtest "interleaved pops return non-decreasing values vs remaining"
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range 0.0 50.0))
    (fun prios ->
      let n = List.length prios in
      let h = Heap.create (2 * n) in
      let ok = ref true in
      List.iteri
        (fun i p ->
          Heap.insert h ~key:i p;
          if i mod 3 = 2 then begin
            match Heap.pop_min h with
            | None -> ()
            | Some (_, popped) ->
              (* popped must be <= every remaining priority *)
              for k = 0 to (2 * n) - 1 do
                match Heap.priority h k with
                | Some q when q < popped -. 1e-12 -> ok := false
                | _ -> ()
              done
          end)
        prios;
      !ok)

(* ---- state-for-state agreement with the swap-based reference ---- *)

module Ref = Oracle.Ref_heap

type op =
  | Insert of int * float
  | Decrease of int * float
  | Insert_or_decrease of int * float
  | Insert_or_decrease_from of int * float
  | Pop_min
  | Pop_min_key
  | Clear

let show_op = function
  | Insert (k, p) -> Printf.sprintf "insert %d %g" k p
  | Decrease (k, p) -> Printf.sprintf "decrease %d %g" k p
  | Insert_or_decrease (k, p) -> Printf.sprintf "insert_or_decrease %d %g" k p
  | Insert_or_decrease_from (k, p) ->
    Printf.sprintf "insert_or_decrease_from %d %g" k p
  | Pop_min -> "pop_min"
  | Pop_min_key -> "pop_min_key"
  | Clear -> "clear"

let capacity = 20

(* heavy ties: mostly 0, a few small integers and infinity; keys run one
   past the capacity so the range checks are exercised too *)
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
      (4, map2 (fun k p -> Insert (k, p)) key prio);
      (2, map2 (fun k p -> Decrease (k, p)) key prio);
      (4, map2 (fun k p -> Insert_or_decrease (k, p)) key prio);
      (3, map2 (fun k p -> Insert_or_decrease_from (k, p)) key prio);
      (3, return Pop_min);
      (2, return Pop_min_key);
      (1, return Clear);
    ]

type result = Done | Popped of (int * float) option | Key of int | Raised of string

(* one operation on either heap; [Invalid_argument] is part of the result *)
module Step (H : sig
  type t
  val insert : t -> key:int -> float -> unit
  val decrease : t -> key:int -> float -> unit
  val insert_or_decrease : t -> key:int -> float -> unit
  val insert_or_decrease_from : t -> float array -> int -> unit
  val pop_min : t -> (int * float) option
  val pop_min_key : t -> int
  val clear : t -> unit
end) =
struct
  let apply h prios op =
    try
      match op with
      | Insert (k, p) -> H.insert h ~key:k p; Done
      | Decrease (k, p) -> H.decrease h ~key:k p; Done
      | Insert_or_decrease (k, p) -> H.insert_or_decrease h ~key:k p; Done
      | Insert_or_decrease_from (k, p) ->
        if k < Array.length prios then prios.(k) <- p;
        H.insert_or_decrease_from h prios k;
        Done
      | Pop_min -> Popped (H.pop_min h)
      | Pop_min_key -> Key (H.pop_min_key h)
      | Clear -> H.clear h; Done
    with Invalid_argument msg -> Raised msg
end

module Step_new = Step (Heap)
module Step_ref = Step (Ref)

let prop_matches_swap_reference =
  Tutil.qtest ~count:500 "hole-based sifts = swap-based reference, state for state"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        Gen.(list_size (int_range 1 120) gen_op))
    (fun ops ->
      let h = Heap.create capacity and r = Ref.create capacity in
      let prios = Array.make (capacity + 1) 0.0 in
      List.for_all
        (fun op ->
          let got = Step_new.apply h prios op in
          let want = Step_ref.apply r prios op in
          got = want && Heap.For_testing.state h = Ref.state r)
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
          Alcotest.test_case "decrease rejects increase" `Quick
            test_decrease_increase_rejected;
          Alcotest.test_case "duplicate insert rejected" `Quick
            test_insert_duplicate_rejected;
          Alcotest.test_case "key out of range" `Quick test_out_of_range;
          Alcotest.test_case "insert_or_decrease" `Quick test_insert_or_decrease;
          Alcotest.test_case "clear" `Quick test_clear;
          Alcotest.test_case "negative capacity" `Quick test_negative_capacity;
        ] );
      ( "property",
        [
          prop_heapsort;
          prop_running_min;
          prop_mixed_ops;
          prop_matches_swap_reference;
        ] );
    ]
