(* List-returning subset enumeration: the reference for
   [Combinations.iter_subsets_up_to]. [subsets_up_to items k] lists every
   subset of size 1..[k], smallest sizes first. *)

let subsets_of_size items k =
  let rec go items k =
    if k = 0 then [ [] ]
    else
      match items with
      | [] -> []
      | x :: rest ->
        let with_x = List.map (fun s -> x :: s) (go rest (k - 1)) in
        with_x @ go rest k
  in
  if k < 0 then [] else go items k

let subsets_up_to items k =
  List.concat_map (fun l -> subsets_of_size items l) (List.init k (fun i -> i + 1))
