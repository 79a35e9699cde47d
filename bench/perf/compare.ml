(* [perf.exe compare]: judge a change against its parent from the result
   files of alternating parent/change runs.

   A gain is claimed only when the change wins at least nine in ten
   pairs and its median beats the parent's by more than the parent's
   interquartile range. No regression means the change's median is not
   worse than the parent's by more than the metric's BENCHMARK.json
   bound; where the parent's own spread exceeds the bound the verdict is
   "unresolved", unless every change run beats every parent run. *)

(* Python's statistics.quantiles(data, n=4) (the default 'exclusive'
   method); its middle cut is the median *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

let value_of record workload metric =
  let open Json in
  member_exn "workloads" record |> member_exn workload |> member_exn "end_to_end"
  |> member_exn metric |> member_exn "value" |> to_float

let run ~benchmark ~parents ~changes =
  let n = List.length parents in
  if n <> List.length changes then failwith "compare: need as many --change as --parent files";
  if n < 10 then failwith "compare: need at least 10 parent/change pairs";
  let bench = Json.read_file benchmark in
  let workloads =
    List.map (fun w -> Json.(to_str (member_exn "name" w)))
      Json.(to_list (member_exn "workloads" bench))
  in
  let metrics =
    List.map
      (fun m ->
        Json.
          ( to_str (member_exn "name" m),
            to_str (member_exn "better" m) = "higher",
            to_float (member_exn "bound" m) ))
      Json.(to_list (member_exn "end_to_end" bench))
  in
  let parents = List.map Json.read_file parents in
  let changes = List.map Json.read_file changes in
  Printf.printf "%-18s %-20s %30s %30s %6s %8s %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "gain" "no-regression";
  List.iter
    (fun w ->
      List.iter
        (fun (metric, higher, bound) ->
          let p = List.map (fun r -> value_of r w metric) parents in
          let c = List.map (fun r -> value_of r w metric) changes in
          (* positive when [a] is better than [b] *)
          let gain a b = if higher then a -. b else b -. a in
          let wins = List.fold_left2 (fun k a b -> if gain a b > 0.0 then k + 1 else k) 0 c p in
          let p1, pm, p3 = quartiles p and c1, cm, c3 = quartiles c in
          let claim = wins * 10 >= 9 * n && gain cm pm > p3 -. p1 in
          let scale = Float.abs pm in
          let verdict =
            if List.for_all (fun a -> List.for_all (fun b -> gain a b > 0.0) p) c then "ok"
            else if p3 -. p1 > bound *. scale then "unresolved"
            else if -.gain cm pm > bound *. scale then "REGRESSED"
            else "ok"
          in
          let cell m q1 q3 = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
          Printf.printf "%-18s %-20s %30s %30s %3d/%-2d %8s %s\n" w metric
            (cell pm p1 p3) (cell cm c1 c3) wins n
            (if claim then "met" else "not met")
            verdict)
        metrics)
    workloads
