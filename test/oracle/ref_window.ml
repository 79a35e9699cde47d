(* [Sp_window.bucket] as it stood before the linear count: a sorted
   snapshot of every link residual and a binary search for the first
   one at or above [bandwidth -. 1e-9]. *)
let bucket net ~bandwidth =
  let r = Array.init (Sdn.Network.m net) (Sdn.Network.link_residual net) in
  Array.sort compare r;
  let threshold = bandwidth -. 1e-9 in
  let lo = ref 0 and hi = ref (Array.length r) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if r.(mid) < threshold then lo := mid + 1 else hi := mid
  done;
  !lo
