let check ~capacity ~residual ~base =
  if base <= 1.0 then invalid_arg "Cost_model: base must exceed 1";
  if capacity <= 0.0 then invalid_arg "Cost_model: non-positive capacity";
  if residual < -1e-6 || residual > capacity +. 1e-6 then
    invalid_arg "Cost_model: residual outside [0, capacity]"

let utilization ~capacity ~residual =
  Float.max 0.0 (Float.min 1.0 (1.0 -. (residual /. capacity)))

let normalized_weight ~capacity ~residual ~base =
  check ~capacity ~residual ~base;
  (base ** utilization ~capacity ~residual) -. 1.0

let default_base net = 2.0 *. float_of_int (Sdn.Network.n net)
let default_sigma net = float_of_int (Sdn.Network.n net) -. 1.0

let link_weight net ~base e =
  normalized_weight
    ~capacity:(Sdn.Network.link_capacity net e)
    ~residual:(Sdn.Network.link_residual net e)
    ~base

let server_weight net ~base v =
  normalized_weight
    ~capacity:(Sdn.Network.server_capacity net v)
    ~residual:(Sdn.Network.server_residual net v)
    ~base

let linear_link_weight net e = Sdn.Network.link_unit_cost net e
