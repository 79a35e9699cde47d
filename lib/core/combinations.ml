let choose n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

let count_up_to n k =
  let acc = ref 0 in
  for l = 1 to k do
    acc := !acc + choose n l
  done;
  !acc

let iter_subsets_up_to items k f =
  match items with
  | [] -> ()
  | first :: _ ->
    let arr = Array.of_list items in
    let n = Array.length arr in
    let buf = Array.make (max k 1) first in
    let rec prefix i acc = if i < 0 then acc else prefix (i - 1) (buf.(i) :: acc) in
    let rec go depth start target =
      if depth = target then f (prefix (target - 1) [])
      else
        for i = start to n - 1 do
          buf.(depth) <- arr.(i);
          go (depth + 1) (i + 1) target
        done
    in
    for l = 1 to min k n do
      go 0 0 l
    done
