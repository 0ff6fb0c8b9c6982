module Ss = Proto.Softstate

type deadlines = Ss.deadlines = { t1 : float; t2 : float }

type entry = Ss.entry = private {
  node : int;
  seq : int;
  mutable marked_until : float;
  mutable fresh_until : float;
  mutable expires_at : float;
  mutable epoch : int;
}

let entry_stale = Ss.entry_stale
let entry_dead = Ss.entry_dead
let entry_marked = Ss.entry_marked
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
  let stale t ~now = entry_stale t.e ~now
  let dead t ~now = entry_dead t.e ~now
  let refresh t dl ~now = Ss.refresh_entry t.e dl ~now
  let replace t dl ~now target = t.e <- Ss.entry dl ~now target
  let entry t = t.e
  let copy t = { e = Ss.copy_entry t.e }
end

type channel_state =
  | No_state
  | Control of Mct.t
  | Forwarding of Mft.t

type t = channel_state Mcast.Channel.Tbl.t

let create () : t = Mcast.Channel.Tbl.create 4
let is_empty t = Mcast.Channel.Tbl.length t = 0

let find t ch =
  match Mcast.Channel.Tbl.find_opt t ch with Some s -> s | None -> No_state

let set t ch state =
  match state with
  | No_state -> Mcast.Channel.Tbl.remove t ch
  | s -> Mcast.Channel.Tbl.replace t ch s

let sweep t ~now =
  let updates =
    Mcast.Channel.Tbl.fold
      (fun ch state acc ->
        match state with
        | No_state -> (ch, None) :: acc
        | Control mct -> if Mct.dead mct ~now then (ch, None) :: acc else acc
        | Forwarding mft ->
            Mft.expire mft ~now;
            if Mft.is_empty mft then (ch, None) :: acc else acc)
      t []
  in
  List.iter
    (fun (ch, state) ->
      match state with
      | None -> Mcast.Channel.Tbl.remove t ch
      | Some s -> Mcast.Channel.Tbl.replace t ch s)
    updates

let channels t = Mcast.Channel.Tbl.fold (fun ch _ acc -> ch :: acc) t []

let mct_count t =
  Mcast.Channel.Tbl.fold
    (fun _ s acc -> match s with Control _ -> acc + 1 | _ -> acc)
    t 0

let mft_entry_count t =
  Mcast.Channel.Tbl.fold
    (fun _ s acc -> match s with Forwarding m -> acc + Mft.size m | _ -> acc)
    t 0

let is_branching t ch =
  match find t ch with Forwarding _ -> true | No_state | Control _ -> false

let copy (t : t) : t =
  let c = Mcast.Channel.Tbl.create (max 4 (Mcast.Channel.Tbl.length t)) in
  Mcast.Channel.Tbl.iter
    (fun ch state ->
      let state' =
        match state with
        | No_state -> No_state
        | Control m -> Control (Mct.copy m)
        | Forwarding m -> Forwarding (Mft.copy m)
      in
      Mcast.Channel.Tbl.replace c ch state')
    t;
  c
