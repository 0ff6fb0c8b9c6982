type channel = { csrc : int; group : int32 }

type table_op = Add | Refresh | Mark | Expire | Remove

type kind =
  | Join of { member : int; first : bool }
  | Tree of { target : int }
  | Fusion of { members : int list }
  | Packet_forward of { next : int; dst : int; data : bool }
  | Packet_duplicate of { dst : int; data : bool }
  | Mft_update of { target : int; op : table_op }
  | Mct_update of { target : int; op : table_op }
  | Member_join
  | Member_leave
  | Packet_lost of { next : int; dst : int; data : bool; reason : string }
  | Link_down of { u : int; v : int }
  | Link_up of { u : int; v : int }
  | Node_crash
  | Node_restart
  | Route_reconverge of { changed : int }
  | Invariant_violation of { oracle : string; detail : string }
  | Note of string

type t = {
  time : float;
  node : int;
  channel : channel option;
  kind : kind;
}

let make ~time ~node ?channel kind = { time; node; channel; kind }

let label = function
  | Join _ -> "join"
  | Tree _ -> "tree"
  | Fusion _ -> "fusion"
  | Packet_forward _ -> "pkt-fwd"
  | Packet_duplicate _ -> "pkt-dup"
  | Mft_update _ -> "mft"
  | Mct_update _ -> "mct"
  | Member_join -> "member-join"
  | Member_leave -> "member-leave"
  | Packet_lost _ -> "pkt-lost"
  | Link_down _ -> "link-down"
  | Link_up _ -> "link-up"
  | Node_crash -> "crash"
  | Node_restart -> "restart"
  | Route_reconverge _ -> "reconverge"
  | Invariant_violation _ -> "invariant"
  | Note _ -> "note"

let op_name = function
  | Add -> "add"
  | Refresh -> "refresh"
  | Mark -> "mark"
  | Expire -> "expire"
  | Remove -> "remove"

let dotted_quad g =
  Printf.sprintf "%ld.%ld.%ld.%ld"
    (Int32.logand (Int32.shift_right_logical g 24) 0xFFl)
    (Int32.logand (Int32.shift_right_logical g 16) 0xFFl)
    (Int32.logand (Int32.shift_right_logical g 8) 0xFFl)
    (Int32.logand g 0xFFl)

let pp_channel ppf c = Format.fprintf ppf "<%d,%s>" c.csrc (dotted_quad c.group)

let summary = function
  | Join { member; first } ->
      Printf.sprintf "join member=%d%s" member (if first then " first" else "")
  | Tree { target } -> Printf.sprintf "tree target=%d" target
  | Fusion { members } ->
      Printf.sprintf "fusion members=[%s]"
        (String.concat "," (List.map string_of_int members))
  | Packet_forward { next; dst; data } ->
      Printf.sprintf "%s ->%d dst=%d" (if data then "data" else "ctrl") next dst
  | Packet_duplicate { dst; data } ->
      Printf.sprintf "duplicate %s dst=%d" (if data then "data" else "ctrl") dst
  | Mft_update { target; op } ->
      Printf.sprintf "mft %s target=%d" (op_name op) target
  | Mct_update { target; op } ->
      Printf.sprintf "mct %s target=%d" (op_name op) target
  | Member_join -> "member joined"
  | Member_leave -> "member left"
  | Packet_lost { next; dst; data; reason } ->
      Printf.sprintf "lost %s ->%d dst=%d (%s)"
        (if data then "data" else "ctrl")
        next dst reason
  | Link_down { u; v } -> Printf.sprintf "link %d-%d down" u v
  | Link_up { u; v } -> Printf.sprintf "link %d-%d up" u v
  | Node_crash -> "node crashed"
  | Node_restart -> "node restarted"
  | Route_reconverge { changed } ->
      Printf.sprintf "routing reconverged (%d next-hops changed)" changed
  | Invariant_violation { oracle; detail } ->
      Printf.sprintf "VIOLATION %s: %s" oracle detail
  | Note s -> s

let pp ppf e =
  Format.fprintf ppf "%10.3f  n%-3d  %-12s %s" e.time e.node
    (Printf.sprintf "[%s]" (label e.kind))
    (summary e.kind);
  match e.channel with
  | Some c -> Format.fprintf ppf "  %a" pp_channel c
  | None -> ()
