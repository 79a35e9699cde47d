type t = {
  cap : int;
  used_at : int array;
}

let create net ~capacity =
  if capacity < 0 then invalid_arg "Rule_budget.create: negative capacity";
  { cap = capacity; used_at = Array.make (Sdn.Network.n net) 0 }

let capacity t = t.cap

let check t v name =
  if v < 0 || v >= Array.length t.used_at then invalid_arg (name ^ ": bad switch")

let used t v =
  check t v "Rule_budget.used";
  t.used_at.(v)

let total_used t = Array.fold_left ( + ) 0 t.used_at

let demand_of rules =
  List.map
    (fun v -> (v, Flow_rules.table_size rules v))
    (Flow_rules.switches_with_state rules)

let install t rules =
  match
    List.find_opt (fun (v, d) -> t.used_at.(v) + d > t.cap) (demand_of rules)
  with
  | Some (v, d) ->
    Error
      (Printf.sprintf "switch %d: needs %d rules, %d of %d free" v d
         (t.cap - t.used_at.(v)) t.cap)
  | None ->
    List.iter (fun (v, d) -> t.used_at.(v) <- t.used_at.(v) + d) (demand_of rules);
    Ok ()

let uninstall t rules =
  List.iter
    (fun (v, d) ->
      if t.used_at.(v) < d then invalid_arg "Rule_budget.uninstall: over-release")
    (demand_of rules);
  List.iter (fun (v, d) -> t.used_at.(v) <- t.used_at.(v) - d) (demand_of rules)

let admit t net algo request =
  match Admission.admit_tree net algo request with
  | Error _ as e -> e
  | Ok tree -> (
    let rules = Flow_rules.of_pseudo_tree net tree in
    match install t rules with
    | Ok () -> Ok (tree, rules)
    | Error msg ->
      Sdn.Network.release net (Pseudo_tree.allocation tree);
      Error ("forwarding table overflow: " ^ msg))
