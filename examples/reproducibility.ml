(* Reproducibility workflow: generate a scenario (network + request
   sequence), dump it to a plain-text snapshot, reload it, and show that
   the reloaded scenario replays the original admission run decision for
   decision. This is how experiment configurations can be shared or kept
   as regression fixtures.

   Run with: dune exec examples/reproducibility.exe *)

let () =
  (* 1. generate a scenario *)
  let rng = Topology.Rng.create 123 in
  let topo = Topology.Transit_stub.generate_sized rng ~n:80 in
  let net = Sdn.Network.make_random_servers ~rng topo in
  let requests = Workload.Gen.sequence rng net ~count:120 in
  Format.printf "scenario: %a, %d requests@." Sdn.Network.pp net
    (List.length requests);

  (* 2. dump it *)
  let text = Sdn.Snapshot.scenario_to_string net requests in
  let path = Filename.temp_file "nfvm_scenario" ".snap" in
  Sdn.Snapshot.save path text;
  Format.printf "snapshot : %s (%d bytes)@." path (String.length text);

  (* 3. reload into fresh values *)
  let reloaded =
    Result.bind (Sdn.Snapshot.load path) Sdn.Snapshot.scenario_of_string
  in
  Sys.remove path;
  match reloaded with
  | Error e ->
    Format.printf "reload failed: %s@." e;
    exit 1
  | Ok (net', requests') ->
    (* 4. replay the same online run on both *)
    let run net reqs =
      Nfv_multicast.Admission.run net Nfv_multicast.Admission.Online_cp reqs
    in
    let original = run net requests in
    let replayed = run net' requests' in
    Format.printf "original : admitted %d/%d@."
      original.Nfv_multicast.Admission.admitted
      original.Nfv_multicast.Admission.total;
    Format.printf "replayed : admitted %d/%d@."
      replayed.Nfv_multicast.Admission.admitted
      replayed.Nfv_multicast.Admission.total;
    let identical =
      List.for_all2
        (fun (a : Nfv_multicast.Admission.record)
             (b : Nfv_multicast.Admission.record) ->
          a.Nfv_multicast.Admission.admitted = b.Nfv_multicast.Admission.admitted
          && a.Nfv_multicast.Admission.server = b.Nfv_multicast.Admission.server)
        original.Nfv_multicast.Admission.records
        replayed.Nfv_multicast.Admission.records
    in
    Format.printf "decisions identical: %b@." identical;
    if not identical then exit 1
