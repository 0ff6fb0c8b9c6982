(** A router's REUNITE state for the session's channel, on the
    runtime's {!Proto.Softstate} entries and tables.

    An MCT is a {!Proto.Softstate.Table.t} with one entry per receiver
    whose flow is relayed through this router (Figure 3's R6 holds
    both r1 and r2, and Figure 2's teardown destroys "any r1 MCT
    entries"); its entries keep install order, and the oldest fresh
    one ({!Proto.Softstate.Table.first_fresh}) becomes the dst when a
    captured join converts the router to branching.

    An MFT holds one [dst] entry (the first receiver that joined in
    the subtree — data arriving here is addressed to it) plus the
    receiver entries data is rewritten to.  Entries carry the t1
    (stale) and t2 (destroy) deadlines; a {e stale} MFT (stale [dst])
    no longer captures joins, which is what lets remaining receivers
    re-join closer to the source after a departure (Figure 2(c)). *)

module Mft : sig
  type t

  val create : Proto.Softstate.deadlines -> now:float -> dst:int -> t
  val dst : t -> Proto.Softstate.entry

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

  val receivers : t -> Proto.Softstate.entry list
  (** Live receiver entries, ascending by node. *)

  val receiver_nodes : t -> int list

  val mem : t -> int -> bool
  (** True if the node is the dst or a receiver entry. *)

  val find_receiver : t -> int -> Proto.Softstate.entry option
  (** The receiver entry for a node ([dst] excluded) — epoch
      inspection for the freshness guard. *)

  val add_receiver :
    t -> Proto.Softstate.deadlines -> now:float -> int -> unit
  (** Insert or refresh. *)

  val refresh : t -> Proto.Softstate.deadlines -> now:float -> int -> bool
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

(** A router's state for the session's channel.  It may hold control
    entries for transit flows alongside a forwarding table: becoming a
    branching node moves one MCT entry into the MFT ("removes <S,r1>
    from its MCT", Figure 2) and leaves the rest.  A router keeps the
    record only while at least one of the two tables exists. *)
type channel_state = {
  mutable mct : Proto.Softstate.Table.t option;
  mutable mft : Mft.t option;
}

val sweep : channel_state -> now:float -> channel_state option
(** Expire dead entries and drop a dead table; [None] once neither
    table is left, so the router drops the record. *)

val mct_count : channel_state -> int
val mft_entry_count : channel_state -> int

val copy : channel_state -> channel_state
(** Deep copy — checkpoint support. *)
