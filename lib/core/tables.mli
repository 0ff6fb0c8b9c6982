(** HBH soft-state tables (Section 3.1), as a vocabulary over the
    runtime's generic {!Proto.Softstate} table.

    Every entry carries the two timers of the paper: when [t1]
    expires the entry goes {e stale} — still used for data forwarding
    but no longer generating downstream tree messages; when [t2]
    expires it is destroyed.  An entry may additionally be {e marked}
    (by a fusion): marked entries forward tree messages but not data.
    The mark is itself soft state with a t1 lifetime — the periodic
    fusion cycle re-asserts it, and it lapses when the downstream
    branching node that claimed the member stops doing so (e.g. after
    routing moved the tree elsewhere).  Timers are realized as
    absolute deadlines compared against the simulation clock, with an
    explicit {!Mft.expire} sweep. *)

type deadlines = Proto.Softstate.deadlines = { t1 : float; t2 : float }
(** Relative validity durations, [0 < t1 < t2]. *)

type times = Proto.Softstate.times = private {
  mutable marked_until : float;  (** absolute mark-decay deadline *)
  mutable fresh_until : float;  (** absolute t1 deadline *)
  mutable expires_at : float;  (** absolute t2 deadline *)
}
(** The entry's deadlines, stored flat (see {!Proto.Softstate.times}). *)

type entry = Proto.Softstate.entry = private {
  node : int;  (** the receiver or downstream branching node *)
  seq : int;  (** table install order *)
  tm : times;
  mutable epoch : int;
      (** route epoch of the last forward-path validation (see
          {!stamp}); 0 until first stamped *)
}

val stamp : entry -> epoch:int -> unit
(** Record forward-path evidence at the given route epoch (monotone).
    Tree processing stamps the entries the converging tree message
    validates; the join-interception rule then refuses to refresh
    entries the current routing no longer supports
    ([entry.epoch < route_epoch]) — the freshness guard of
    DESIGN.md §6b. *)

(** {1 Multicast forwarding table (branching routers)} *)

module Mft : sig
  type t

  val create : unit -> t
  val mem : t -> int -> bool
  val find : t -> int -> entry option

  val add_fresh : t -> deadlines -> now:float -> int -> entry
  (** Insert (or re-freshen) an unmarked fresh entry. *)

  val add_stale : t -> deadlines -> now:float -> int -> entry
  (** Fusion-style insert: a new entry is born with t1 already
      expired (data flows to it, no tree messages yet); an existing
      entry gets its t2 refreshed with t1 untouched — "kept expired"
      (Appendix A, fusion rules 3-4) — so join-driven freshness is
      never downgraded. *)

  val refresh : t -> deadlines -> now:float -> int -> bool
  (** Join-style refresh: restart both timers, keep [marked].  False
      if absent. *)

  val mark : t -> deadlines -> now:float -> int -> bool
  (** Mark an existing entry for t1 {e without} touching t2 (a marked
      entry not refreshed by joins must die — that is how the Figure 5
      walk-through sheds the source's direct receiver entries).  The
      mark lapses at t1 unless a later fusion renews it.  False if
      absent. *)

  val expire : t -> now:float -> unit
  (** Drop dead entries. *)

  val data_targets : t -> now:float -> int list
  (** Entries data is copied to: not marked (stale included),
      ascending. *)

  val tree_targets : t -> now:float -> int list
  (** Entries tree messages are emitted to: not stale (marked
      included), ascending. *)

  val members : t -> int list
  (** All entry nodes, ascending (the fusion payload). *)

  val clear : t -> unit
  (** Drop every entry (a crashed node's volatile memory). *)

  val entries : t -> entry list
  (** All entries (dead ones included until swept), ascending by
      node — for inspection and tests. *)

  val size : t -> int

  val copy : t -> t
  (** Deep copy (independent entries) — checkpoint support. *)
end

(** {1 Multicast control table (non-branching routers)} *)

module Mct : sig
  type t

  val create : deadlines -> now:float -> int -> t
  (** Single-entry table holding the one receiver relayed through
      this router. *)

  val target : t -> int
  val stale : t -> now:float -> bool
  val refresh : t -> deadlines -> now:float -> unit
  val replace : t -> deadlines -> now:float -> int -> unit

  val entry : t -> entry
  (** The single underlying entry — for inspection (state digests). *)

end

(** {1 A router's state for the session's channel} *)

type channel_state =
  | No_state  (** what a lookup miss reads as; never stored *)
  | Control of Mct.t
  | Forwarding of Mft.t

val sweep : channel_state -> now:float -> channel_state option
(** Expire dead entries: [None] once a dead MCT or an emptied MFT
    leaves nothing, so the router drops the channel's state. *)

val mct_count : channel_state -> int
val mft_entry_count : channel_state -> int

val copy : channel_state -> channel_state
(** Deep copy — checkpoint support. *)
