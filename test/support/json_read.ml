(* The JSON reader: parses what Obs.Json writes, and reads a metrics
   snapshot back from Obs.Metrics.snapshot_to_json's tree.  The runs
   only write JSON; the tests read it back to check the export. *)

(* ---- Parser ----------------------------------------------------------- *)

open Obs.Json

exception Parse of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* Escaped code points: the writer only emits these for
                 control characters, so a byte is enough; others keep
                 a replacement encoding. *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_string b "\xef\xbf\xbd";
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') -> advance (); go ()
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          let rec go () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := parse_value () :: !items;
                go ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let fields = ref [ field () ] in
          let rec go () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields := field () :: !fields;
                go ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse (at, msg) -> Error (Printf.sprintf "at %d: %s" at msg)

(* ---- Accessors -------------------------------------------------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_list = function List l -> Some l | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

(* ---- Metrics snapshots ------------------------------------------------ *)

let histo_of_json j =
  let ( let* ) = Option.bind in
  let* count = Option.bind (member "count" j) to_int in
  let* sum = Option.bind (member "sum" j) to_float in
  let min =
    match Option.bind (member "min" j) to_float with
    | Some v -> v
    | None -> nan (* NaN serialises as null *)
  in
  let max =
    match Option.bind (member "max" j) to_float with
    | Some v -> v
    | None -> nan
  in
  let* overflow = Option.bind (member "overflow" j) to_int in
  let nans =
    (* Absent in snapshots written before NaNs were tracked apart. *)
    Option.value ~default:0 (Option.bind (member "nans" j) to_int)
  in
  let* bucket_items = Option.bind (member "buckets" j) to_list in
  let* buckets =
    List.fold_right
      (fun item acc ->
        let* acc = acc in
        let* le = Option.bind (member "le" item) to_float in
        let* n = Option.bind (member "n" item) to_int in
        Some ((le, n) :: acc))
      bucket_items (Some [])
  in
  Some { Obs.Histo.buckets; overflow; count; sum; min; max; nans }

let snapshot_of_json j =
  let ( let* ) = Option.bind in
  let fields name to_v =
    match member name j with
    | Some (Obj l) ->
        List.fold_right
          (fun (k, v) acc ->
            let* acc = acc in
            let* v = to_v v in
            Some ((k, v) :: acc))
          l (Some [])
    | _ -> None
  in
  match
    let* counters = fields "counters" to_int in
    let* gauges =
      fields "gauges" (fun v ->
          match to_float v with
          | Some f -> Some f
          | None -> if v = Null then Some nan else None)
    in
    let* histograms = fields "histograms" histo_of_json in
    Some { Obs.Metrics.counters; gauges; histograms }
  with
  | Some s -> Ok s
  | None -> Error "Json_read.snapshot_of_json: not a snapshot object"
