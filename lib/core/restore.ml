type value = Volume | Priced

type policy =
  | Replay of Batch.order
  | Knapsack of value
  | Deadline

type trigger = Heal | Heal_or_depart

type t = {
  policy : policy;
  trigger : trigger;
}

let default = { policy = Replay Batch.Smallest_first; trigger = Heal }

let make ?(policy = default.policy) ?(trigger = default.trigger) () =
  { policy; trigger }

let policy_to_string = function
  | Replay o -> "replay-" ^ Batch.order_to_string o
  | Knapsack Volume -> "knapsack-volume"
  | Knapsack Priced -> "knapsack-priced"
  | Deadline -> "deadline"

let to_string t =
  match t.trigger with
  | Heal -> policy_to_string t.policy
  | Heal_or_depart -> policy_to_string t.policy ^ "+depart"

let on_depart t = t.trigger = Heal_or_depart

type entry = {
  request : Sdn.Request.t;
  depart_at : float;
}

(* every policy starts from the id-sorted backlog and refines it with
   stable sorts, so ties always resolve to ascending request ids — the
   determinism contract the hashtable-backed backlog needs *)
let by_id entries =
  List.stable_sort
    (fun a b -> compare a.request.Sdn.Request.id b.request.Sdn.Request.id)
    entries

let select ~window ~returned net t entries =
  let base = by_id entries in
  match t.policy with
  | Replay order ->
    Batch.reorder ~window net (List.map (fun e -> e.request) base) order
  | Deadline ->
    List.map
      (fun e -> e.request)
      (List.stable_sort (fun a b -> compare a.depart_at b.depart_at) base)
  | Knapsack v ->
    (* one greedy pass of the classic value-density heuristic: entries
       whose footprint fits the returned headroom come first (they can
       plausibly be paid for by the heal alone), descending density
       within each class. Densities are computed before sorting so
       Priced runs exactly one solve per entry. *)
    let fits fp = fp <= returned *. (1.0 +. 1e-9) in
    let scored =
      List.map
        (fun e ->
          let fp = Batch.footprint e.request in
          let density =
            match v with
            | Volume -> fp
            | Priced -> (
              match Appro_multi.solve ~window net e.request with
              | Ok res when res.Appro_multi.cost > 0.0 ->
                fp /. res.Appro_multi.cost
              | Ok _ -> infinity (* free tree: infinitely dense *)
              | Error _ -> 0.0 (* unpriceable: attempt last, never skip *))
          in
          (fits fp, density, e.request))
        base
    in
    List.map
      (fun (_, _, r) -> r)
      (List.stable_sort
         (fun (fa, da, _) (fb, db, _) ->
           match (fa, fb) with
           | true, false -> -1
           | false, true -> 1
           | _ -> compare db da)
         scored)
