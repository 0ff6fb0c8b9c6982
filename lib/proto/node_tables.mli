(** Per-node protocol tables under one invariant: a node's table exists
    only while it holds state.

    Soft state lives only where the live tree runs (branching and
    relaying routers), so a session's periodic work should follow the
    live tree, not every router a message of the channel ever crossed.
    The three rules that keep it so:

    - read paths look a table up with {!find}, which never inserts;
    - only a path that is about to install an entry calls {!attach};
    - {!sweep} drops every table its expiry pass leaves empty, and a
      handler that empties a table outside a sweep calls {!release}.

    The session's sweep, its [state_size] gauge fold and its checkpoint
    copy then all cost O(live state). *)

module type TABLE = sig
  type t

  val create : unit -> t

  val sweep : t -> now:float -> unit
  (** Expire dead entries in place. *)

  val is_empty : t -> bool

  val copy : t -> t
  (** Deep copy — checkpoint support. *)
end

module Make (T : TABLE) : sig
  type t = (int, T.t) Hashtbl.t

  val create : unit -> t

  val find : t -> int -> T.t option
  (** The node's table, if it holds state.  Never inserts. *)

  val attach : t -> int -> T.t
  (** The node's table, created and attached on a miss — for paths
      that install an entry into it straight away. *)

  val release : t -> int -> unit
  (** Drop the node's table if it no longer holds state. *)

  val sweep : t -> now:float -> unit
  (** {!TABLE.sweep} every table, dropping those left empty. *)

  val copy : t -> t

  val to_list : t -> (int * T.t) list
  (** Ascending by node. *)
end
