type t = int32

(* Class D is 1110 in the top four bits: 224.0.0.0 - 239.255.255.255. *)
let is_class_d v =
  Int32.logand v 0xF0000000l = 0xE0000000l

let of_int32 v =
  if not (is_class_d v) then
    invalid_arg (Printf.sprintf "Class_d.of_int32: %ld is not class D" v);
  v

let to_int32 t = t

let byte t i = Int32.to_int (Int32.logand (Int32.shift_right_logical t (8 * (3 - i))) 0xFFl)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" (byte t 0) (byte t 1) (byte t 2) (byte t 3)

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let parse x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> v
        | _ -> invalid_arg (Printf.sprintf "Class_d.of_string: bad octet %S" x)
      in
      let a = parse a and b = parse b and c = parse c and d = parse d in
      let v =
        Int32.logor
          (Int32.shift_left (Int32.of_int a) 24)
          (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))
      in
      match is_class_d v with
      | true -> v
      | false -> invalid_arg (Printf.sprintf "Class_d.of_string: %S not class D" s))
  | _ -> invalid_arg (Printf.sprintf "Class_d.of_string: malformed %S" s)

let ssm_base = 0xE8000000l (* 232.0.0.0 *)

type allocator = { mutable next : int }

let allocator () = { next = 1 }

let allocate a =
  if a.next >= 1 lsl 24 then failwith "Class_d.allocate: SSM block exhausted";
  let v = Int32.logor ssm_base (Int32.of_int a.next) in
  a.next <- a.next + 1;
  v
