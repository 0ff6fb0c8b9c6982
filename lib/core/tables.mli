(** A router's HBH state for the session's channel (Section 3.1).

    The tables are {!Proto.Softstate}'s own: a non-branching router
    holds one detached entry (its MCT, the one receiver relayed
    through it), a branching router a {!Proto.Softstate.Table.t} (its
    MFT).  Every entry carries the two timers of the paper: when [t1]
    expires the entry goes {e stale} — still used for data forwarding
    but no longer generating downstream tree messages; when [t2]
    expires it is destroyed.  An MFT entry may additionally be
    {e marked} (by a fusion): marked entries forward tree messages but
    not data.  The mark is itself soft state with a t1 lifetime — the
    periodic fusion cycle re-asserts it, and it lapses when the
    downstream branching node that claimed the member stops doing so
    (e.g. after routing moved the tree elsewhere).  Data goes to an
    MFT's {!Proto.Softstate.Table.data_targets}, tree messages to its
    {!Proto.Softstate.Table.fresh_targets}, and a fusion lists its
    {!Proto.Softstate.Table.nodes}. *)

type channel_state =
  | No_state  (** what a lookup miss reads as; never stored *)
  | Control of Proto.Softstate.entry
      (** the MCT; rule 7 installs a fresh entry for a new target *)
  | Forwarding of Proto.Softstate.Table.t  (** the MFT *)

val sweep : channel_state -> now:float -> channel_state option
(** Expire dead entries: [None] once a dead MCT or an emptied MFT
    leaves nothing, so the router drops the channel's state. *)

val mct_count : channel_state -> int
val mft_entry_count : channel_state -> int

val copy : channel_state -> channel_state
(** Deep copy — checkpoint support. *)
