module Ss = Proto.Softstate

type deadlines = Ss.deadlines = { t1 : float; t2 : float }

type times = Ss.times = private {
  mutable marked_until : float;
  mutable fresh_until : float;
  mutable expires_at : float;
}

type entry = Ss.entry = private {
  node : int;
  seq : int;
  tm : times;
  mutable epoch : int;
}

let stamp = Ss.stamp

module Mft = struct
  include Ss.Table

  (* HBH vocabulary over the generic table: tree messages go to the
     non-stale entries, the fusion payload lists every entry node. *)
  let tree_targets = fresh_targets
  let members = nodes
end

module Mct = struct
  (* The single-entry control table is a detached softstate entry in a
     mutable slot: replace swaps in a fresh entry for the new target. *)
  type t = { mutable e : entry }

  let create dl ~now target = { e = Ss.entry dl ~now target }
  let target t = t.e.node
  let stale t ~now = Ss.entry_stale t.e ~now
  let dead t ~now = Ss.entry_dead t.e ~now
  let refresh t dl ~now = Ss.refresh_entry t.e dl ~now
  let replace t dl ~now target = t.e <- Ss.entry dl ~now target
  let entry t = t.e
  let copy t = { e = Ss.copy_entry t.e }
end

type channel_state =
  | No_state
  | Control of Mct.t
  | Forwarding of Mft.t

(* A node holds one channel's state, so the node's entry is that state;
   [No_state] is what a lookup miss reads as and is never stored. *)
let sweep state ~now =
  match state with
  | No_state -> None
  | Control mct -> if Mct.dead mct ~now then None else Some state
  | Forwarding mft ->
      Mft.expire mft ~now;
      if Mft.is_empty mft then None else Some state

let mct_count = function Control _ -> 1 | No_state | Forwarding _ -> 0

let mft_entry_count = function
  | Forwarding m -> Mft.size m
  | No_state | Control _ -> 0


let copy = function
  | No_state -> No_state
  | Control m -> Control (Mct.copy m)
  | Forwarding m -> Forwarding (Mft.copy m)
