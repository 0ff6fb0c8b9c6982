module Ss = Proto.Softstate

type channel_state =
  | No_state
  | Control of Ss.entry
  | Forwarding of Ss.Table.t

(* A node holds one channel's state, so the node's entry is that state;
   [No_state] is what a lookup miss reads as and is never stored. *)
let sweep state ~now =
  match state with
  | No_state -> None
  | Control e -> if Ss.entry_dead e ~now then None else Some state
  | Forwarding mft ->
      Ss.Table.expire mft ~now;
      if Ss.Table.is_empty mft then None else Some state

let mct_count = function Control _ -> 1 | No_state | Forwarding _ -> 0

let mft_entry_count = function
  | Forwarding m -> Ss.Table.size m
  | No_state | Control _ -> 0

let copy = function
  | No_state -> No_state
  | Control e -> Control (Ss.copy_entry e)
  | Forwarding m -> Forwarding (Ss.Table.copy m)
