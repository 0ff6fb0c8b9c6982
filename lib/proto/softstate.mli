(** The generic TTL'd soft-state table of the protocol runtime, kept
    as an array sorted by node.

    Every entry carries the paper's two absolute deadlines: when [t1]
    expires the entry goes {e stale} (still usable, no longer
    refreshed downstream); when [t2] expires it is {e dead} and the
    next {!Table.expire} sweep destroys it.  An entry may additionally
    be {e marked} — a timed claim with a t1 lifetime that decays
    unless re-asserted.  One parameterization covers all three
    protocol stacks:

    - HBH MFTs use the full ladder: fresh/stale insertions, join-style
      {!Table.refresh}, fusion-style {!Table.mark}, and the
      data/tree target projections ({!Table.data_targets},
      {!Table.fresh_targets}); an HBH MCT is one detached {!entry}.
    - REUNITE receiver and control tables use install-order iteration
      ({!Table.first_fresh}) with detached
      {!entry} values for the dst slot.
    - PIM-SSM oif maps degenerate to [t1 = t2 = holdtime]: an entry is
      live exactly until its holdtime deadline. *)

type deadlines = { t1 : float; t2 : float }
(** Relative validity durations, [0 < t1 <= t2]. *)

type times = private {
  mutable marked_until : float;  (** absolute mark-decay deadline *)
  mutable fresh_until : float;  (** absolute t1 deadline *)
  mutable expires_at : float;  (** absolute t2 deadline *)
}
(** An entry's three deadlines.  Every field is a float, so OCaml
    stores the record flat: a refresh, mark or stale-refresh is a
    plain store that allocates nothing, where a float field of a mixed
    record would box a new float on every write. *)

type entry = private {
  node : int;  (** the neighbor, receiver or downstream branch *)
  seq : int;  (** table install order (0 for detached entries) *)
  tm : times;  (** the deadlines, owned by this entry alone *)
  mutable epoch : int;
      (** route epoch of the entry's last forward-path validation
          (see {!stamp}); 0 until first stamped *)
}

val entry_stale : entry -> now:float -> bool
val entry_dead : entry -> now:float -> bool
val entry_marked : entry -> now:float -> bool

val copy_entry : entry -> entry
(** Independent copy of a (mutable) entry, its {!times} record
    included — checkpoint primitive. *)

val stamp : entry -> epoch:int -> unit
(** Record forward-path evidence for this entry at the given route
    epoch (monotone — an older stamp never overwrites a newer one).
    Protocols stamp an entry whenever current-routing evidence (a
    tree message converging on it, a source-received join) proves the
    entry is consistent with the present unicast paths; the freshness
    guard then distinguishes entries the current routing still
    supports ([e.epoch] = session route epoch) from soft state
    surviving a reroute. *)

val entry : deadlines -> now:float -> int -> entry
(** A detached fresh entry (not owned by any table) — e.g. REUNITE's
    dst slot. *)

val refresh_entry : entry -> deadlines -> now:float -> unit
(** Restart both deadlines. *)

val force_stale : entry -> now:float -> unit
(** Pull the t1 deadline back to [now] (never extends it). *)

module Table : sig
  type t

  val create : unit -> t
  val size : t -> int
  val is_empty : t -> bool
  val mem : t -> int -> bool
  val find : t -> int -> entry option

  val add_fresh : t -> deadlines -> now:float -> int -> entry
  (** Insert a fresh unmarked entry, or restart both deadlines of an
      existing one (its mark survives). *)

  val add_stale : t -> deadlines -> now:float -> int -> entry
  (** Insert an entry born with t1 already expired, or refresh only
      the t2 of an existing one — t1 is "kept expired", never
      downgraded (HBH fusion rules 3-4). *)

  val refresh : t -> deadlines -> now:float -> int -> bool
  (** Restart both deadlines of an existing entry; false if absent. *)

  val mark : t -> deadlines -> now:float -> int -> bool
  (** Set the timed mark (t1 lifetime) on an existing entry without
      touching t2; false if absent. *)

  val remove : t -> int -> unit
  val clear : t -> unit

  val copy : t -> t
  (** Deep copy: independent entry and {!times} records, identical
      install-order counter — every projection of the copy matches the
      original, and no write to one reaches the other. *)

  val expire : t -> now:float -> unit
  (** Drop dead entries. *)

  val all_dead : t -> now:float -> bool
  (** Every entry dead (vacuously true when empty). *)

  val nodes : t -> int list
  (** All entry nodes (dead included until swept), ascending. *)

  val entries : t -> entry list
  (** All entries, ascending by node. *)

  val live_nodes : t -> now:float -> int list
  (** Non-dead entry nodes, ascending. *)

  val data_targets : t -> now:float -> int list
  (** Live and unmarked (stale included), ascending. *)

  val fresh_targets : t -> now:float -> int list
  (** Live and not stale (marked included), ascending. *)

  val mem_live : t -> now:float -> int -> bool

  val first_fresh : t -> now:float -> int option
  (** The oldest-installed live, non-stale entry's node. *)
end
