(* A simulated-time sampler: named probes read on demand into an
   in-memory series.  The timeline itself knows nothing about the
   event engine (obs sits below eventsim) — the owner drives
   [sample] from a periodic timer, so rows land at exact simulated
   instants and two seeded runs produce identical series. *)

type probe = unit -> float

type t = {
  interval : float;
  mutable probes : (string * probe) list; (* registration order, reversed *)
  mutable rows : (float * float array) list; (* newest first *)
}

let create ?(interval = 50.0) () =
  if interval <= 0.0 then
    invalid_arg "Timeline.create: interval must be positive";
  { interval; probes = []; rows = [] }

let interval t = t.interval

let add_probe t name probe =
  if List.mem_assoc name t.probes then
    invalid_arg (Printf.sprintf "Timeline.add_probe: duplicate probe %S" name);
  if t.rows <> [] then
    invalid_arg "Timeline.add_probe: timeline already has samples";
  t.probes <- (name, probe) :: t.probes

let columns t = List.rev_map fst t.probes

let sample t ~now =
  let values =
    (* probes is newest-first; build the row in registration order. *)
    let ordered = List.rev t.probes in
    Array.of_list (List.map (fun (_, p) -> p ()) ordered)
  in
  t.rows <- (now, values) :: t.rows

let rows t = List.rev t.rows

(* One JSON object per line: {"t":..., "<probe>":...,...}.  Json.Float
   prints a float that holds an integer with one fractional digit
   ([1.0], not [1]) and any other with 12 significant digits, or 17
   when 12 do not read back to the same float, so the export is
   byte-stable across runs. *)
let to_ndjson ?(tags = []) t =
  let cols = columns t in
  let b = Buffer.create 4096 in
  List.iter
    (fun (time, values) ->
      let fields =
        List.map (fun (k, v) -> (k, Json.String v)) tags
        @ ("t", Json.Float time)
          :: List.mapi
               (fun i name -> (name, Json.Float values.(i)))
               cols
      in
      Buffer.add_string b (Json.to_string (Json.Obj fields));
      Buffer.add_char b '\n')
    (rows t);
  Buffer.contents b

let pp ppf t =
  let cols = columns t in
  let width =
    List.fold_left (fun w c -> max w (String.length c)) 8 cols
  in
  Format.fprintf ppf "  %*s" width "t";
  List.iter (fun c -> Format.fprintf ppf " %*s" width c) cols;
  Format.fprintf ppf "@.";
  List.iter
    (fun (time, values) ->
      Format.fprintf ppf "  %*.0f" width time;
      Array.iter (fun v -> Format.fprintf ppf " %*g" width v) values;
      Format.fprintf ppf "@.")
    (rows t)
