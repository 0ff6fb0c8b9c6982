(** The event trace: a bounded ring of typed {!Event.t}s plus
    pluggable sinks.

    Two independent outputs: when [~enabled], events are retained in
    the ring (for post-run inspection and dumps); sinks, if attached,
    see every event as it happens regardless of the ring flag
    (streaming export).  When neither is on the trace is {e inactive}
    and recording is a no-op — callers on hot paths should guard
    event {e construction} with {!active} so a quiet trace costs one
    branch and zero allocation.

    Packet-level events (one per link traversal) are high-volume and
    would evict the interesting control-plane events from the ring;
    producers of such events additionally guard on {!verbose}. *)

type t

type sink = Event.t -> unit

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** Ring retention off by default; [capacity] bounds memory (default
    10_000 events, oldest evicted first). *)

val verbose : t -> bool
(** Whether per-packet events should be emitted (default false). *)

val set_verbose : t -> bool -> unit

val on_event : t -> sink -> unit
(** Attach a streaming sink; sinks stack and fire in attachment
    order.  Exceptions from sinks propagate to the recorder. *)

val active : t -> bool
(** Ring retention on or sinks attached — guard event construction on
    this. *)

val event : t -> time:float -> node:int -> ?channel:Event.channel -> Event.kind -> unit
(** Record {!Event.make}'s event: feed the sinks and, when ring
    retention is on, keep it in the ring.  No-op when {!active} is
    false. *)

val notef :
  t -> time:float -> node:int -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Record a free-form {!Event.Note} with lazy formatting: when the
    trace is inactive the format arguments are consumed without
    rendering — genuinely free, the formatter never runs. *)

val last : t -> int -> Event.t list
(** The [n] most recent ring events, oldest of them first. *)

val length : t -> int

val dropped : t -> int
(** Ring truncation: events evicted since creation.  Report this
    alongside dumps so a bounded trace never silently lies about
    completeness. *)

val high_water : t -> int
(** Maximum ring occupancy since creation. *)
