(** REUNITE soft-state tables, as a vocabulary over the runtime's
    generic {!Proto.Softstate} table.

    An MFT holds one [dst] entry (the first receiver that joined in
    the subtree — data arriving here is addressed to it) plus the
    receiver entries data is rewritten to.  Entries carry the t1
    (stale) and t2 (destroy) deadlines; a {e stale} MFT (stale [dst])
    no longer captures joins, which is what lets remaining receivers
    re-join closer to the source after a departure (Figure 2(c)). *)

type deadlines = Proto.Softstate.deadlines = { t1 : float; t2 : float }

type times = Proto.Softstate.times = private {
  mutable marked_until : float;  (** unused by REUNITE *)
  mutable fresh_until : float;
  mutable expires_at : float;
}
(** The entry's deadlines, stored flat (see {!Proto.Softstate.times}). *)

type entry = Proto.Softstate.entry = private {
  node : int;
  seq : int;  (** table install order *)
  tm : times;
  mutable epoch : int;
      (** route epoch of the last forward-path validation (see
          {!Proto.Softstate.stamp}); 0 until first stamped *)
}

val entry_stale : entry -> now:float -> bool
val entry_dead : entry -> now:float -> bool

val stamp : entry -> epoch:int -> unit
(** Record forward-path evidence at the given route epoch (monotone)
    — the freshness guard of DESIGN.md §6b.  Tree forks stamp the
    entries they serve; join capture refuses to refresh receiver
    entries the current routing no longer validates. *)

module Mft : sig
  type t

  val create : deadlines -> now:float -> dst:int -> t
  val dst : t -> entry

  (** [should_fork t ~epoch] is true exactly once per source epoch: a
      branching router forks tree messages (and refreshes its dst)
      only for epochs it has not seen, so a branching structure
      orphaned from the source cannot keep itself alive by
      circulating its own forked trees. *)
  val should_fork : t -> epoch:int -> bool

  val upstream : t -> int
  (** The neighbor genuine (epoch-gated) tree messages for the dst
      last arrived from; [-1] before the first one. *)

  val set_upstream : t -> int -> unit

  val from_upstream : t -> via:int -> bool
  (** RPF check: true when a packet's incoming interface matches the
      learned upstream (or none is learned yet).  Data arriving from
      elsewhere — e.g. a copy that looped around through another
      branching router — must not be forked again. *)

  val receivers : t -> entry list
  (** Live receiver entries, ascending by node. *)

  val receiver_nodes : t -> int list

  val mem : t -> int -> bool
  (** True if the node is the dst or a receiver entry. *)

  val find_receiver : t -> int -> entry option
  (** The receiver entry for a node ([dst] excluded) — epoch
      inspection for the freshness guard. *)

  val add_receiver : t -> deadlines -> now:float -> int -> unit
  (** Insert or refresh. *)

  val refresh : t -> deadlines -> now:float -> int -> bool
  (** Refresh whichever entry (dst included) matches; false if none. *)

  val stale_dst : t -> now:float -> unit
  (** Force the dst entry stale (marked-tree reception). *)

  val expire : t -> now:float -> unit
  (** Drop dead receiver entries. *)

  val dead : t -> now:float -> bool
  (** dst dead and no live receivers: the table should be destroyed. *)

  val promote : t -> now:float -> bool
  (** If the dst is dead but a live receiver remains, make the first
      one the new dst (used at the source).  Returns true if a
      promotion happened. *)

  val size : t -> int

  val copy : t -> t
  (** Deep copy (independent entries) — checkpoint support. *)
end

(** Multi-entry control table: one entry per receiver whose flow is
    relayed through this router (Figure 3's R6 holds both r1 and r2,
    and Figure 2's teardown destroys "any r1 MCT entries").  Entries
    keep install order; the oldest fresh one becomes the dst when a
    captured join converts the router to branching. *)
module Mct : sig
  type t

  val create : deadlines -> now:float -> int -> t
  val mem : t -> now:float -> int -> bool
  val add : t -> deadlines -> now:float -> int -> unit
  (** Insert at the back, or refresh in place. *)

  val remove : t -> int -> unit
  val first_fresh : t -> now:float -> int option
  val dead : t -> now:float -> bool

  val entries : t -> entry list
  (** All entries, ascending by node — for inspection (state
      digests). *)
end

(** A router's state for the session's channel.  It may hold control
    entries for transit flows alongside a forwarding table: becoming a
    branching node moves one MCT entry into the MFT ("removes <S,r1>
    from its MCT", Figure 2) and leaves the rest.  A router keeps the
    record only while at least one of the two tables exists. *)
type channel_state = {
  mutable mct : Mct.t option;
  mutable mft : Mft.t option;
}

val sweep : channel_state -> now:float -> channel_state option
(** Expire dead entries and drop a dead table; [None] once neither
    table is left, so the router drops the record. *)

val mct_count : channel_state -> int
val mft_entry_count : channel_state -> int

val copy : channel_state -> channel_state
(** Deep copy — checkpoint support. *)
