type action =
  | Loss_all of { rate : float }
  | Link_down of { u : int; v : int }
  | Link_up of { u : int; v : int }
  | Crash of { node : int }
  | Restart of { node : int }
  | Partition_named of { name : string; island : int list }
  | Heal_named of { name : string }
  | Jitter of { max_delay : float }
  | Reorder of { window : float; prob : float }
  | Duplicate of { prob : float }
  | Burst_loss of { prob : float; len : int }
  | Drop_control of { prob : float }
  | Reconverge
  | Join of { member : int }
  | Leave of { member : int }

type directive = { at : float; action : action }

type t = directive list

let detection_lag = 30.0

(* Every range check is phrased so that NaN fails it. *)
let check_prob what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.Plan: %s %g outside [0,1]" what p)

let check_span what x =
  if not (Float.is_finite x && x >= 0.0) then
    invalid_arg
      (Printf.sprintf "Fault.Plan: %s %g not finite and non-negative" what x)

let check_name name =
  if name = "" || String.exists (fun c -> c = ' ' || c = ',') name then
    invalid_arg (Printf.sprintf "Fault.Plan: bad partition name %S" name)

let validate_action = function
  | Loss_all { rate } -> check_prob "loss rate" rate
  | Partition_named { name; island } ->
      check_name name;
      if island = [] then invalid_arg "Fault.Plan: empty partition island"
  | Heal_named { name } -> check_name name
  | Jitter { max_delay } -> check_span "jitter" max_delay
  | Reorder { window; prob } ->
      check_prob "reorder prob" prob;
      check_span "reorder window" window
  | Duplicate { prob } -> check_prob "duplication prob" prob
  | Burst_loss { prob; len } ->
      check_prob "burst prob" prob;
      if len < 0 then
        invalid_arg (Printf.sprintf "Fault.Plan: negative burst length %d" len)
  | Drop_control { prob } -> check_prob "drop-control prob" prob
  | Link_down _ | Link_up _ | Crash _ | Restart _ | Reconverge | Join _
  | Leave _ ->
      ()

let make directives =
  List.iter
    (fun (at, action) ->
      check_span "directive time" at;
      validate_action action)
    directives;
  List.stable_sort
    (fun a b -> compare a.at b.at)
    (List.map (fun (at, action) -> { at; action }) directives)

let directives t = t

(* ---- Replayable text form --------------------------------------------- *)

(* One directive per line, [@<time> <action> <args...>]; blank lines
   and [#] comments are ignored on parse.  This is the on-disk format
   of the golden counterexample fixtures, so it must round-trip. *)

(* [%g] when it reads back exactly (the fixtures' form), else enough
   digits that it does. *)
let num x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let action_to_string = function
  | Loss_all { rate } -> Printf.sprintf "loss-all %s" (num rate)
  | Link_down { u; v } -> Printf.sprintf "link-down %d %d" u v
  | Link_up { u; v } -> Printf.sprintf "link-up %d %d" u v
  | Crash { node } -> Printf.sprintf "crash %d" node
  | Restart { node } -> Printf.sprintf "restart %d" node
  | Partition_named { name; island } ->
      Printf.sprintf "partition-named %s %s" name
        (String.concat "," (List.map string_of_int island))
  | Heal_named { name } -> Printf.sprintf "heal-named %s" name
  | Jitter { max_delay } -> Printf.sprintf "jitter %s" (num max_delay)
  | Reorder { window; prob } ->
      Printf.sprintf "reorder %s %s" (num window) (num prob)
  | Duplicate { prob } -> Printf.sprintf "duplicate %s" (num prob)
  | Burst_loss { prob; len } ->
      Printf.sprintf "burst-loss %s %d" (num prob) len
  | Drop_control { prob } -> Printf.sprintf "drop-control %s" (num prob)
  | Reconverge -> "reconverge"
  | Join { member } -> Printf.sprintf "join %d" member
  | Leave { member } -> Printf.sprintf "leave %d" member

let to_string t =
  String.concat ""
    (List.map
       (fun d ->
         Printf.sprintf "@%s %s\n" (num d.at) (action_to_string d.action))
       t)

let parse_island s = List.map int_of_string (String.split_on_char ',' s)

let parse_action s =
  match String.split_on_char ' ' s with
  | [ "loss-all"; r ] -> Loss_all { rate = float_of_string r }
  | [ "link-down"; u; v ] ->
      Link_down { u = int_of_string u; v = int_of_string v }
  | [ "link-up"; u; v ] -> Link_up { u = int_of_string u; v = int_of_string v }
  | [ "crash"; n ] -> Crash { node = int_of_string n }
  | [ "restart"; n ] -> Restart { node = int_of_string n }
  | [ "partition-named"; name; island ] ->
      Partition_named { name; island = parse_island island }
  | [ "heal-named"; name ] -> Heal_named { name }
  | [ "jitter"; d ] -> Jitter { max_delay = float_of_string d }
  | [ "reorder"; w; p ] ->
      Reorder { window = float_of_string w; prob = float_of_string p }
  | [ "duplicate"; p ] -> Duplicate { prob = float_of_string p }
  | [ "burst-loss"; p; l ] ->
      Burst_loss { prob = float_of_string p; len = int_of_string l }
  | [ "drop-control"; p ] -> Drop_control { prob = float_of_string p }
  | [ "reconverge" ] -> Reconverge
  | [ "join"; m ] -> Join { member = int_of_string m }
  | [ "leave"; m ] -> Leave { member = int_of_string m }
  | _ -> failwith "unknown action"

let parse_directive line =
  if String.length line < 2 || line.[0] <> '@' then failwith "missing @time";
  match String.index_opt line ' ' with
  | None -> failwith "missing action"
  | Some i ->
      let at = float_of_string (String.sub line 1 (i - 1)) in
      let action =
        parse_action (String.sub line (i + 1) (String.length line - i - 1))
      in
      (at, action)

let of_string s =
  let directives =
    String.split_on_char '\n' s
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match parse_directive line with
             | d -> Some d
             | exception (Failure msg | Invalid_argument msg) ->
                 invalid_arg
                   (Printf.sprintf "Fault.Plan.of_string: %s in %S" msg line))
  in
  make directives
