(* Low-cardinality label sets for metric series.  A set is a sorted
   association list with unique keys; sorting at construction makes
   label order irrelevant to identity, so {protocol=hbh, topo=isp}
   and {topo=isp, protocol=hbh} name the same series. *)

type t = (string * string) list (* sorted by key, keys unique *)

let empty = []
let valid_key k =
  String.length k > 0
  && (match k.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       k

let make pairs =
  List.iter
    (fun (k, _) ->
      if not (valid_key k) then
        invalid_arg (Printf.sprintf "Labels.make: invalid label key %S" k))
    pairs;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then
          invalid_arg (Printf.sprintf "Labels.make: duplicate label key %S" a)
        else dup rest
    | _ -> ()
  in
  dup sorted;
  sorted

let v pairs = make pairs
let bindings t = t
(* OpenMetrics-compatible escaping inside label values. *)
let escape_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render = function
  | [] -> ""
  | pairs ->
      let b = Buffer.create 32 in
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b k;
          Buffer.add_string b "=\"";
          Buffer.add_string b (escape_value v);
          Buffer.add_char b '"')
        pairs;
      Buffer.add_char b '}';
      Buffer.contents b

let series_name name t = name ^ render t
