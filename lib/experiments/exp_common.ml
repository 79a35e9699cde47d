type series = {
  label : string;
  points : (float * float) list;
}

type figure = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
  notes : string list;
}

let render ppf fig =
  Format.fprintf ppf "== %s: %s ==@." fig.id fig.title;
  List.iter (fun n -> Format.fprintf ppf "   # %s@." n) fig.notes;
  let xs =
    List.sort_uniq compare
      (List.concat_map (fun s -> List.map fst s.points) fig.series)
  in
  let col_width =
    List.fold_left (fun acc s -> max acc (String.length s.label)) 12 fig.series
    + 2
  in
  Format.fprintf ppf "%-12s" fig.xlabel;
  List.iter
    (fun s -> Format.fprintf ppf "%*s" col_width s.label)
    fig.series;
  Format.fprintf ppf "   (%s)@." fig.ylabel;
  List.iter
    (fun x ->
      Format.fprintf ppf "%-12g" x;
      List.iter
        (fun s ->
          match List.assoc_opt x s.points with
          | Some y -> Format.fprintf ppf "%*.4g" col_width y
          | None -> Format.fprintf ppf "%*s" col_width "-")
        fig.series;
      Format.fprintf ppf "@.")
    xs;
  Format.fprintf ppf "@."

let render_all ppf figs = List.iter (render ppf) figs

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv fig =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "# %s: %s (%s)\n" fig.id fig.title fig.ylabel);
  List.iter (fun n -> Buffer.add_string buf ("# " ^ n ^ "\n")) fig.notes;
  Buffer.add_string buf
    (String.concat ","
       (csv_escape fig.xlabel :: List.map (fun s -> csv_escape s.label) fig.series));
  Buffer.add_char buf '\n';
  let xs =
    List.sort_uniq compare (List.concat_map (fun s -> List.map fst s.points) fig.series)
  in
  List.iter
    (fun x ->
      Buffer.add_string buf (Printf.sprintf "%g" x);
      List.iter
        (fun s ->
          Buffer.add_char buf ',';
          match List.assoc_opt x s.points with
          | Some y -> Buffer.add_string buf (Printf.sprintf "%g" y)
          | None -> ())
        fig.series;
      Buffer.add_char buf '\n')
    xs;
  Buffer.contents buf

(* mkdir -p, so [--csv out/run-3/figs] works without [out/run-3] and no
   figure already computed is lost to a missing parent directory *)
let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_csv ~dir fig =
  ensure_dir dir;
  let path = Filename.concat dir (fig.id ^ ".csv") in
  let oc = open_out path in
  output_string oc (to_csv fig);
  close_out oc;
  path

(* Waxman with alpha ∝ 1/n keeps the expected degree flat across the
   50–250 size sweep, at the ≈ 3.5–4.5 average degree GT-ITM setups
   usually report. *)
let gtitm_like rng ~n =
  let alpha = 16.0 /. float_of_int n in
  Topology.Waxman.generate ~alpha ~beta:0.25 rng ~n

let network rng ~n =
  let topo = gtitm_like rng ~n in
  Sdn.Network.make_random_servers ~fraction:0.1 ~rng topo

let geant_network rng =
  Sdn.Network.make ~rng ~servers:Topology.Geant.default_servers
    (Topology.Geant.topology ())

let as1755_network rng =
  Sdn.Network.make_random_servers ~fraction:0.1 ~rng (Topology.Rocketfuel.as1755 ())

let as4755_network rng =
  Sdn.Network.make_random_servers ~fraction:0.1 ~rng (Topology.Rocketfuel.as4755 ())

(* Stands in for the wall clock nfvm installs (or the library's
   [Sys.time] default). One tick per read, counted per domain
   (domain-local state), so the number of ticks a measured region
   consumes depends only on the code it runs — not on which domain ran
   it or what siblings did concurrently. That makes the figures' "ms per
   request" columns byte-identical across --jobs settings.

   The tick is a power of two (2^-13 s ≈ 0.12 ms) so every clock value
   is an exact multiple of it and differences of two readings are exact:
   with a non-dyadic tick the accumulated counter picks up ULP rounding
   that depends on how much earlier work ran on the same domain, and a
   span duration sitting on a histogram-bucket boundary then lands in
   different buckets under different schedules. *)
let tick = 1.0 /. 8192.0
let fake_ticks : float ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0.0)

let fake_clock () =
  let t = Domain.DLS.get fake_ticks in
  t := !t +. tick;
  !t

let install_fake_clock () = Nfv_obs.Obs.clock := fake_clock

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
