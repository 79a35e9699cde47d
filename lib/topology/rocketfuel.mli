(** Synthetic stand-ins for the Rocketfuel ISP backbone maps the paper
    evaluates on (AS1755 Ebone and AS4755 VSNL).

    The original router-level maps are not redistributable here, so we
    generate deterministic graphs with the published scale — AS1755:
    87 nodes / 161 links, AS4755: 41 nodes / 68 links — and an ISP-like
    heavy-tailed degree distribution (preferential attachment core plus
    random meshing). See DESIGN.md §4 for why this substitution preserves
    the experiments' behaviour. *)

val as1755 : unit -> Topo.t
(** "AS1755"-scale backbone: 87 nodes, 161 links, deterministic. *)

val as4755 : unit -> Topo.t
(** "AS4755"-scale backbone: 41 nodes, 68 links, deterministic. *)
