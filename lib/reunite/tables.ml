module Ss = Proto.Softstate

module Mft = struct
  (* The dst slot is a detached softstate entry; the receiver entries
     data is rewritten to live in a generic table. *)
  type t = {
    mutable dst : Ss.entry;
    tbl : Ss.Table.t;
    mutable last_fork_epoch : int;
    mutable upstream : int;
  }

  let create dl ~now ~dst =
    {
      dst = Ss.entry dl ~now dst;
      tbl = Ss.Table.create ();
      last_fork_epoch = -1;
      upstream = -1;
    }

  let upstream t = t.upstream
  let set_upstream t n = t.upstream <- n
  let from_upstream t ~via = t.upstream = -1 || t.upstream = via

  let should_fork t ~epoch =
    if epoch > t.last_fork_epoch then begin
      t.last_fork_epoch <- epoch;
      true
    end
    else false

  let dst t = t.dst
  let receivers t = Ss.Table.entries t.tbl
  let receiver_nodes t = Ss.Table.nodes t.tbl
  let mem t n = t.dst.node = n || Ss.Table.mem t.tbl n
  let find_receiver t n = Ss.Table.find t.tbl n

  let add_receiver t dl ~now n = ignore (Ss.Table.add_fresh t.tbl dl ~now n)

  let refresh t dl ~now n =
    if t.dst.node = n then begin
      Ss.refresh_entry t.dst dl ~now;
      true
    end
    else Ss.Table.refresh t.tbl dl ~now n

  let stale_dst t ~now = Ss.force_stale t.dst ~now
  let expire t ~now = Ss.Table.expire t.tbl ~now
  let dead t ~now = Ss.entry_dead t.dst ~now && Ss.Table.all_dead t.tbl ~now

  let promote t ~now =
    if Ss.entry_dead t.dst ~now then begin
      expire t ~now;
      match receivers t with
      | e :: _ ->
          Ss.Table.remove t.tbl e.node;
          t.dst <- e;
          true
      | [] -> false
    end
    else false

  let size t = 1 + Ss.Table.size t.tbl

  let copy t =
    {
      dst = Ss.copy_entry t.dst;
      tbl = Ss.Table.copy t.tbl;
      last_fork_epoch = t.last_fork_epoch;
      upstream = t.upstream;
    }
end

(* A router may hold control entries for transit flows alongside a
   forwarding table: becoming a branching node moves one MCT entry
   into the MFT ("removes <S,r1> from its MCT", Figure 2) and leaves
   the rest. *)
type channel_state = {
  mutable mct : Ss.Table.t option;
  mutable mft : Mft.t option;
}

(* The record is the router's whole state for the session's channel;
   it is dropped once both tables are gone, so it is never stored
   empty. *)
let sweep state ~now =
  (match state.mct with
  | Some m ->
      Ss.Table.expire m ~now;
      if Ss.Table.is_empty m then state.mct <- None
  | None -> ());
  (match state.mft with
  | Some m ->
      Mft.expire m ~now;
      if Mft.dead m ~now then state.mft <- None
  | None -> ());
  if state.mct = None && state.mft = None then None else Some state

let mct_count s = match s.mct with Some m -> Ss.Table.size m | None -> 0
let mft_entry_count s = match s.mft with Some m -> Mft.size m | None -> 0

let copy s =
  { mct = Option.map Ss.Table.copy s.mct; mft = Option.map Mft.copy s.mft }
