(** Per-node protocol state under one invariant: a node's entry exists
    only while it holds state.

    A session serves exactly one channel, so a node's entry {e is} the
    channel's state there (an HBH MCT or MFT, a REUNITE table pair, a
    PIM-SSM oif map) — there is no per-channel level below the node.
    Soft state lives only where the live tree runs (branching and
    relaying routers), so a session's periodic work should follow the
    live tree, not every router a message of the channel ever crossed.
    The three rules that keep it so:

    - read paths look an entry up with {!find}, which never inserts;
    - only a path that installs state calls {!set}, with an entry that
      already holds it;
    - {!sweep} drops every entry its expiry pass leaves empty, and a
      handler that empties an entry outside a sweep calls {!release}.

    The session's sweep, its [state_size] gauge fold and its checkpoint
    copy then all cost O(live state). *)

module type TABLE = sig
  type t

  val sweep : t -> now:float -> t option
  (** Expire dead entries; [None] once nothing is left, [Some] of the
      state to keep otherwise. *)

  val copy : t -> t
  (** Deep copy — checkpoint support. *)
end

module Int_tbl : Hashtbl.S with type key = int
(** Int-keyed hash tables on a multiplicative integer mix instead of
    the polymorphic [Hashtbl.hash]: the runtime's node-, slot- and
    channel-keyed tables.  Bucket order differs from [Hashtbl]'s, so
    every fold or iteration over one either sorts its keys first or
    computes something order-free (a sum, a strict minimum, a copy). *)

module Make (T : TABLE) : sig
  type t = (int, T.t) Hashtbl.t

  val create : unit -> t

  val find : t -> int -> T.t option
  (** The node's state, if it holds any.  Never inserts. *)

  val set : t -> int -> T.t -> unit
  (** Install the node's state (replacing any) — for paths that have
      just built a non-empty entry. *)

  val release : t -> int -> unit
  (** Drop the node's state — for a handler that has just emptied it. *)

  val sweep : t -> now:float -> unit
  (** {!TABLE.sweep} every node, dropping those left empty. *)

  val copy : t -> t

  val to_list : t -> (int * T.t) list
  (** Ascending by node. *)
end
