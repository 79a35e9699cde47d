type point_result = (string * float) list

type sweep = {
  key : string;
  points : int;
  point : rng:Topology.Rng.t -> int -> point_result;
}

type cell = {
  x : float;
  sweep : int;
  point : int;
  metric : string;
}

type series_def = {
  label : string;
  cells : cell list;
}

type figure_def = {
  fid : string;
  title : string;
  xlabel : string;
  ylabel : string;
  notes : string list;
  series : series_def list;
}

type instance = {
  sweeps : sweep list;
  figures : figure_def list;
}

type ledger = { total : string; parts : string list }

type t = {
  id : string;
  doc : string;
  instance : seed:int -> requests:int option -> instance;
  smoke : seed:int -> instance;
  ledgers : ledger list;
}

let make ~id ~doc ?(ledgers = []) ~smoke instance =
  { id; doc; instance; smoke; ledgers }

let repair_ledger =
  {
    total = "repair.attempted";
    parts =
      [ "repair.patched"; "repair.migrated"; "repair.readmitted"; "repair.dropped" ];
  }

let admission_ledger =
  {
    total = "online_cp.admits";
    parts =
      [
        "online_cp.admitted";
        "online_cp.rejected.no_feasible_server";
        "online_cp.rejected.unreachable";
        "online_cp.rejected.server_unreachable";
        "online_cp.rejected.over_threshold";
        "online_cp.rejected.unallocatable";
      ];
  }

let restoration_ledger =
  {
    total = "restoration.attempted";
    parts = [ "restoration.restored"; "restoration.failed" ];
  }

let grid ~key params f =
  let at = Array.of_list params in
  { key; points = Array.length at; point = (fun ~rng i -> f ~rng at.(i)) }

let cells ~sweep params pick =
  List.concat
    (List.mapi
       (fun point p ->
         List.map (fun (x, metric) -> { x; sweep; point; metric }) (pick p))
       params)

let concat_instances insts =
  let _, sweeps_rev, figures_rev =
    List.fold_left
      (fun (off, sweeps, figures) inst ->
        let shift (c : cell) = { c with sweep = c.sweep + off } in
        let shifted =
          List.map
            (fun (f : figure_def) ->
              {
                f with
                series =
                  List.map
                    (fun s -> { s with cells = List.map shift s.cells })
                    f.series;
              })
            inst.figures
        in
        ( off + List.length inst.sweeps,
          List.rev_append inst.sweeps sweeps,
          List.rev_append shifted figures ))
      (0, [], []) insts
  in
  { sweeps = List.rev sweeps_rev; figures = List.rev figures_rev }

(* a declared-shape error is a bug in the spec, not in the runner; fail
   with enough context to find the bad cell *)
let lookup results c =
  let sweep_results =
    try results.(c.sweep)
    with Invalid_argument _ ->
      invalid_arg
        (Printf.sprintf "Spec: cell references sweep %d of %d" c.sweep
           (Array.length results))
  in
  let point_result =
    try sweep_results.(c.point)
    with Invalid_argument _ ->
      invalid_arg
        (Printf.sprintf "Spec: cell references point %d of sweep %d" c.point
           c.sweep)
  in
  match List.assoc_opt c.metric point_result with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Spec: sweep %d point %d declared no metric %S" c.sweep
         c.point c.metric)

(* the CSV and the table key a column by its label and a row by its x,
   so a repeat would drop values *)
let check_unique fid describe keys =
  let rec go = function
    | a :: (b :: _ as rest) ->
      if a = b then
        invalid_arg
          (Printf.sprintf "Spec: figure %s repeats %s" fid (describe a))
      else go rest
    | _ -> ()
  in
  go (List.sort compare keys)

let assemble inst results =
  List.map
    (fun (f : figure_def) ->
      check_unique f.fid (Printf.sprintf "label %S")
        (List.map (fun s -> s.label) f.series);
      let series s =
        check_unique f.fid
          (fun x -> Printf.sprintf "x = %g in series %S" x s.label)
          (List.map (fun c -> c.x) s.cells);
        {
          Exp_common.label = s.label;
          points = List.map (fun c -> (c.x, lookup results c)) s.cells;
        }
      in
      {
        Exp_common.id = f.fid;
        title = f.title;
        xlabel = f.xlabel;
        ylabel = f.ylabel;
        series = List.map series f.series;
        notes = f.notes;
      })
    inst.figures
