(* nfvm — command-line frontend for the NFV-enabled multicasting library:
   regenerate any of the paper's figures, solve a single request, or run
   an online admission race on a chosen topology. *)

open Cmdliner

(* ---------- shared options ---------- *)

let seed_arg =
  let doc = "Random seed (all runs are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let requests_arg =
  let doc = "Requests per data point / sequence length (figure-specific default)." in
  Arg.(value & opt (some int) None & info [ "requests" ] ~docv:"N" ~doc)

(* A [--topology] value, validated at parse time so a bad spec is a
   command-line error (exit 124) naming it, not an uncaught exception. *)
type topology =
  | Geant
  | As1755
  | As4755
  | Fat_tree of int
  | Waxman of int
  | Transit_stub of int

let topology_conv =
  let parse spec =
    let known =
      "expected geant, as1755, as4755, fat-tree:K, waxman:N or transit-stub:N"
    in
    let parsed =
      match String.split_on_char ':' spec with
      | [ "geant" ] -> Ok Geant
      | [ "as1755" ] -> Ok As1755
      | [ "as4755" ] -> Ok As4755
      | [ kind; n ] -> (
        match (kind, int_of_string_opt n) with
        | "fat-tree", Some k when k >= 2 && k mod 2 = 0 -> Ok (Fat_tree k)
        | "fat-tree", _ -> Error "K must be an even integer >= 2"
        | "waxman", Some n when n >= 2 -> Ok (Waxman n)
        | "waxman", _ -> Error "N must be an integer >= 2"
        | "transit-stub", Some n when n >= 10 -> Ok (Transit_stub n)
        | "transit-stub", _ -> Error "N must be an integer >= 10"
        | _ -> Error known)
      | _ -> Error known
    in
    Result.map_error
      (fun why -> `Msg (Printf.sprintf "invalid topology %S: %s" spec why))
      parsed
  in
  let print ppf = function
    | Geant -> Format.pp_print_string ppf "geant"
    | As1755 -> Format.pp_print_string ppf "as1755"
    | As4755 -> Format.pp_print_string ppf "as4755"
    | Fat_tree k -> Format.fprintf ppf "fat-tree:%d" k
    | Waxman n -> Format.fprintf ppf "waxman:%d" n
    | Transit_stub n -> Format.fprintf ppf "transit-stub:%d" n
  in
  Arg.conv (parse, print)

let topology_arg =
  let doc =
    "Topology: geant, as1755, as4755, fat-tree:K (K even, >= 2), waxman:N \
     (N >= 2), transit-stub:N (N >= 10)."
  in
  Arg.(
    value & opt topology_conv (Waxman 50) & info [ "topology" ] ~docv:"SPEC" ~doc)

let k_arg =
  let doc = "Maximum number of servers per service chain (K)." in
  Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc)

let jobs_arg =
  let doc =
    "Worker domains used to compute figure data points in parallel \
     (0 = pick automatically from the core count, 1 = sequential). \
     Tables and CSVs are byte-identical for every setting."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let stats_arg =
  let doc =
    "Record telemetry (cache hit/miss counters, per-algorithm Dijkstra and \
     relaxation counts, per-request solve-time histograms) and print the \
     nfv-obs table to stderr on exit."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* flip the recording switch for the command body, dump the report after;
   stdout stays machine-readable, telemetry goes to stderr *)
let with_stats stats f =
  if stats then Nfv_obs.Obs.enabled := true;
  let r = f () in
  if stats then Nfv_obs.Obs.Export.print_table stderr;
  r

let parse_topology rng = function
  | Geant -> (Topology.Geant.topology (), Some Topology.Geant.default_servers)
  | As1755 -> (Topology.Rocketfuel.as1755 (), None)
  | As4755 -> (Topology.Rocketfuel.as4755 (), None)
  | Fat_tree k ->
    let aggs = Topology.Fat_tree.aggregation_switches ~k in
    let servers = List.filteri (fun i _ -> i mod (k / 2) = 0) aggs in
    (Topology.Fat_tree.generate ~k (), Some servers)
  | Waxman n -> (Experiments.Exp_common.gtitm_like rng ~n, None)
  | Transit_stub n -> (Topology.Transit_stub.generate_sized rng ~n, None)

let make_network rng spec =
  let topo, servers = parse_topology rng spec in
  match servers with
  | Some servers -> Sdn.Network.make ~rng ~servers topo
  | None -> Sdn.Network.make_random_servers ~fraction:0.1 ~rng topo

(* ---------- figure commands ---------- *)

let obs_out_arg =
  let doc =
    "Write a per-family Nfv_obs snapshot to $(docv)/<family>.obs.json \
     (instruments are reset before each family, so every snapshot is \
     self-contained and diffable)."
  in
  Arg.(value & opt (some string) None & info [ "obs-out" ] ~docv:"DIR" ~doc)

let csv_arg =
  let doc = "Also write each figure as $(docv)/<id>.csv." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let fake_clock_arg =
  let doc =
    "Replace the wall clock with a deterministic per-domain tick counter, \
     so timing columns and span histograms are reproducible (see \
     EXPERIMENTS.md)."
  in
  Arg.(value & flag & info [ "fake-clock" ] ~doc)

let run_spec ~seed ~requests ~obs_out ~csv spec =
  let figs = Experiments.Runner.run ~seed ?requests ?obs_out spec in
  Experiments.Exp_common.render_all Format.std_formatter figs;
  match csv with
  | None -> ()
  | Some dir ->
    List.iter (fun f -> ignore (Experiments.Exp_common.write_csv ~dir f)) figs

(* the figure subcommands and [all] share every option and differ only in
   the families they run *)
let figures_term specs =
  let action seed requests jobs fake_clock stats obs_out csv =
    Experiments.Pool.set_jobs jobs;
    if fake_clock then Experiments.Exp_common.install_fake_clock ();
    with_stats stats (fun () ->
        List.iter (run_spec ~seed ~requests ~obs_out ~csv) specs)
  in
  Term.(
    const action $ seed_arg $ requests_arg $ jobs_arg $ fake_clock_arg
    $ stats_arg $ obs_out_arg $ csv_arg)

(* one subcommand per registered experiment family — the registry, not
   this file, decides what exists *)
let spec_cmd (spec : Experiments.Spec.t) =
  Cmd.v
    (Cmd.info spec.Experiments.Spec.id ~doc:(spec.Experiments.Spec.doc ^ "."))
    (figures_term [ spec ])

let all_cmd =
  let doc = "Every registered experiment family (the full reproduction run)." in
  Cmd.v (Cmd.info "all" ~doc) (figures_term Experiments.Registry.all)

(* ---------- solve one request ---------- *)

let solve_cmd =
  let doc = "Solve one random NFV-enabled multicast request with Appro_Multi." in
  let dests_arg =
    Arg.(value & opt int 5 & info [ "destinations" ] ~docv:"N" ~doc:"Destination count.")
  in
  let action seed topo_spec k dests stats =
    with_stats stats @@ fun () ->
    let rng = Topology.Rng.create seed in
    let net = make_network rng topo_spec in
    Format.printf "%a@." Sdn.Network.pp net;
    let nn = Sdn.Network.n net in
    let source = Topology.Rng.int rng nn in
    let picks =
      Topology.Rng.sample_without_replacement rng (min dests (nn - 1)) (nn - 1)
    in
    let destinations = List.map (fun i -> if i >= source then i + 1 else i) picks in
    let request =
      Sdn.Request.make ~id:0 ~source ~destinations
        ~bandwidth:(Topology.Rng.float_range rng 50.0 200.0)
        ~chain:(Sdn.Vnf.random_chain rng)
    in
    Format.printf "%a@." Sdn.Request.pp request;
    (match Nfv_multicast.One_server.solve net request with
    | Ok res ->
      Format.printf "Alg_One_Server : cost %.2f (server %d)@."
        res.Nfv_multicast.One_server.cost res.Nfv_multicast.One_server.server
    | Error e -> Format.printf "Alg_One_Server : %s@." e);
    match Nfv_multicast.Appro_multi.solve ~k net request with
    | Ok res ->
      let tree = res.Nfv_multicast.Appro_multi.tree in
      Format.printf "Appro_Multi K=%d: cost %.2f, servers {%s}, %d combinations@." k
        res.Nfv_multicast.Appro_multi.cost
        (String.concat ","
           (List.map string_of_int tree.Nfv_multicast.Pseudo_tree.servers))
        res.Nfv_multicast.Appro_multi.combinations;
      (match Nfv_multicast.Pseudo_tree.validate net tree with
      | Ok () -> Format.printf "validation: OK@."
      | Error e -> Format.printf "validation: FAILED %s@." e)
    | Error e -> Format.printf "Appro_Multi    : %s@." e
  in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(const action $ seed_arg $ topology_arg $ k_arg $ dests_arg $ stats_arg)

(* ---------- online admission race ---------- *)

let admit_cmd =
  let doc = "Race the online algorithms on an arrival sequence." in
  let action seed topo_spec requests stats =
    with_stats stats @@ fun () ->
    let count = Option.value requests ~default:500 in
    let rng = Topology.Rng.create seed in
    let net = make_network rng topo_spec in
    Format.printf "%a, %d requests@.@." Sdn.Network.pp net count;
    let reqs = Workload.Gen.sequence rng net ~count in
    List.iter
      (fun algo ->
        let s = Nfv_multicast.Admission.run net algo reqs in
        Format.printf
          "%-18s admitted %4d/%d  acceptance %.2f  mean-util %.2f  jain %.2f  (%.2f s)@."
          (Nfv_multicast.Admission.algorithm_to_string algo)
          s.Nfv_multicast.Admission.admitted s.Nfv_multicast.Admission.total
          s.Nfv_multicast.Admission.acceptance_ratio
          s.Nfv_multicast.Admission.mean_link_utilization
          s.Nfv_multicast.Admission.jain_fairness
          s.Nfv_multicast.Admission.runtime_s)
      Nfv_multicast.Admission.
        [ Online_cp; Online_cp_no_threshold; Online_linear; Sp ]
  in
  Cmd.v
    (Cmd.info "admit" ~doc)
    Term.(const action $ seed_arg $ topology_arg $ requests_arg $ stats_arg)

let main =
  let doc = "NFV-enabled multicasting in SDNs (ICDCS 2017 reproduction)" in
  Cmd.group
    (Cmd.info "nfvm" ~version:"1.0.0" ~doc)
    (List.map spec_cmd Experiments.Registry.all
    @ [ all_cmd; solve_cmd; admit_cmd ])

(* timing columns and spans read the monotonic wall clock (seconds since
   start-up); the library default, [Sys.time], is process CPU time and
   overstates per-request times under --jobs. --fake-clock replaces it. *)
let () =
  let origin = Monotonic_clock.now () in
  (Nfv_obs.Obs.clock :=
     fun () -> Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9);
  exit (Cmd.eval main)
