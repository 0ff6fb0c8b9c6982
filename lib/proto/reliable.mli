(** Reliable control-message transmission for hard-state protocols:
    per-destination pending slots with bounded exponential backoff.

    A hard-state protocol cannot fall back on periodic refresh to
    paper over a lost control message — every message must eventually
    arrive (or its destination be declared dead).  This helper keeps
    one pending slot per [(from, dst, class)] key holding the latest
    sequence-numbered message toward that peer:

    - {!post} installs or {e supersedes} the slot — the machinery
      only ever retransmits the sender's latest state, so a stale
      NoInterest overtaken by a newer Interest is implicitly cleared;
    - {!ack} clears the slot when the acked sequence number reaches
      the slot's (explicit acknowledgment);
    - {!cancel_between}/{!drop_node}/{!cancel_if} clear key ranges
      when a peer is declared dead, restarts with a new generation
      ID, or crash-wipes.

    The module deliberately owns no timer.  The protocol drives
    {!due_iter} from a single {!Eventsim.Wheel} entry it arms while
    {!pending} is nonzero and stops when the table drains — so k idle
    channels on a shared mux cost zero engine events, and a busy one
    costs one coalesced wheel bucket (the pump pattern; see
    lib/hpim). *)

type 'm slot = private {
  s_from : int;
  s_dst : int;
  s_cls : int;  (** protocol-defined message class, 0..3 *)
  s_sn : int;
  s_payload : 'm;
  mutable s_attempt : int;  (** completed (re)transmissions *)
  mutable s_next : float;  (** absolute next-retransmission deadline *)
}

type 'm t

val create : ?rto : float -> ?rto_max : float -> unit -> 'm t
(** [rto] is the initial retransmission timeout (default 30.0);
    retransmission [k] backs off to [min (rto * 2^k) rto_max]
    (default cap 120.0).  Raises [Invalid_argument] unless
    [0 < rto <= rto_max]. *)

val rto : _ t -> float

val copy : 'm t -> 'm t
(** Deep copy (payloads are shared — messages are immutable) —
    checkpoint primitive.  Every walk over the slots that can reach an
    output ({!due_iter}, {!digest}) sorts by key, so neither the copy's
    bucket order nor the integer mix behind it shows. *)

val post : 'm t -> now:float -> from:int -> dst:int -> cls:int -> sn:int -> 'm -> unit
(** Register the latest message toward [(dst, cls)].  The caller
    sends the first copy itself; the slot schedules the first
    retransmission at [now + rto].  Supersedes any pending slot on
    the same key. *)

val ack : 'm t -> from:int -> dst:int -> cls:int -> sn:int -> unit
(** Clear the [(from, dst, cls)] slot if its sequence number is at
    most [sn].  No-op otherwise (an ack for a superseded message must
    not clear its replacement). *)

val cancel_between : 'm t -> from:int -> dst:int -> unit
(** Clear every class pending from [from] toward [dst] — the peer
    was declared dead or restarted with a new generation ID. *)

val drop_node : 'm t -> int -> unit
(** Clear every slot {e posted by} the node — crash-wipe: a restarted
    node's old intentions are void. *)

val pending : _ t -> int
(** Pending slot count — the pump's arm/stop condition. *)

val due_iter : 'm t -> now:float -> ('m slot -> unit) -> unit
(** Call [f] on every slot whose deadline has passed, in ascending
    key order (deterministic), bumping each slot's attempt count and
    backing off its next deadline first. *)

val digest : _ t -> Buffer.t -> unit
(** Append the sorted pending slot keys to a canonical state digest,
    each as ['r'] and the key's 8 little-endian bytes: a state with
    unacked control messages in flight is not yet settled.  Sequence
    numbers, attempt counts and absolute deadlines are deliberately
    excluded (monotonic bookkeeping). *)
