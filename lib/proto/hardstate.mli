(** The generic hard-state table of the protocol runtime: the
    non-expiring counterpart of {!Softstate}, on the same
    {!Node_tables.Sorted} array.

    A hard-state protocol (HPIM-DM) installs and removes entries only
    on explicit events — a reliably-delivered control message, a
    neighbor declared dead by the Hello liveness machine, a crash
    wipe — never by letting a deadline lapse.  Entries therefore
    carry no [t1]/[t2] ladder at all, which is also what makes them
    digest cleanly: a canonical state digest over a hard-state table
    has no deadline buckets to canonicalize (see
    {!Verif.Sut.state_digest}'s soft-state treatment for the
    contrast). *)

type entry = private {
  node : int;  (** the downstream neighbor or member host *)
  seq : int;  (** table install order *)
}

module Table : sig
  type t

  val create : unit -> t
  val size : t -> int
  val is_empty : t -> bool
  val mem : t -> int -> bool
  val find : t -> int -> entry option

  val add : t -> int -> entry
  (** Install an entry (or return the existing one — idempotent, and
      the install order of the original survives). *)

  val remove : t -> int -> unit
  val clear : t -> unit

  val copy : t -> t
  (** Deep copy: independent entry records, identical install-order
      counter — checkpoint primitive. *)

  val nodes : t -> int list
  (** All entry nodes, ascending. *)

  val entries : t -> entry list
  (** All entries, ascending by node. *)

  val in_order : t -> entry list
  (** All entries, install order. *)
end
