(** Discrete-event simulation core (the NS-2 scheduler replacement).

    A virtual clock plus an event queue.  Events scheduled for the
    same instant fire in the order they were scheduled; time never
    moves backwards; a fired callback may schedule further events.
    Everything is single-threaded and deterministic. *)

type t

type handle
(** A scheduled event; may be cancelled before it fires. *)

val create : unit -> t
(** Clock starts at 0. *)

val now : t -> float

val schedule : ?tag:string -> t -> delay:float -> (unit -> unit) -> handle
(** [schedule e ~delay f] fires [f] at [now e +. delay].  [delay]
    must be non-negative.  [tag] labels the callback for the
    profiling aggregates (see {!set_profiling}); untagged events are
    grouped together. *)

val schedule_at : ?tag:string -> t -> time:float -> (unit -> unit) -> handle
(** Absolute-time variant; [time] must not be in the past. *)

val requeue : t -> handle -> time:float -> unit
(** [requeue e h ~time] puts a handle that has already fired back in
    the queue, to fire its action again at [time].  It takes the next
    sequence number, exactly where a {!schedule_at} made at this point
    would, so same-time tie-breaks are those of a fresh event; and it
    allocates nothing, where a fresh event costs a handle and usually a
    closure.  Precondition: [h] has fired and has not been re-queued
    since, so it sits in no queue (a handle queued twice would fire
    twice).  [time] must not be in the past, and [h] must not be
    cancelled.  {!restore} treats a re-queued handle like any other:
    a snapshot holds it at the time it was queued for then. *)

val cancel : handle -> unit
(** Idempotent; a fired event is unaffected. *)

val pending : t -> int
(** Number of queued events (including cancelled ones not yet
    drained). *)

val step : t -> bool
(** Fire the next event (advancing the clock).  Returns [false] when
    the queue is empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Fire events until the queue is empty, the clock would pass
    [until], or [max_events] have fired.  Events scheduled exactly at
    [until] still fire; on exit the clock is [min until (last event
    time)].  The clock never runs backwards: an [until] before {!now}
    raises [Invalid_argument]. *)

val events_fired : t -> int
(** Total events fired since creation (cancelled events excluded).
    Every fire also increments the [engine.events_fired] counter of
    the registry that was the domain's default ({!Obs.Metrics.default})
    when the engine was created, aggregating across all engines
    created under it. *)

(** {1 Checkpoint / restore}

    A snapshot captures the clock, the scheduling sequence counter,
    the fired count, the full event queue (closures shared, heap
    order and FIFO tie-breaks preserved) and each pending event's
    cancellation flag.  Restoring puts all of that back — including
    the flags, reset {e in place} on the shared handle records, so
    references held outside the queue (timers) observe the restored
    state.  Events scheduled after the snapshot simply disappear.
    Profiling aggregates are observability, not simulation state, and
    are not restored. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** A snapshot may be restored any number of times. *)

(** {1 Profiling}

    Opt-in per-callback-tag accounting: when enabled, each fired
    event bumps its tag's count and records the simulated time it
    fired at into a histogram, and each {!run} adds its CPU time to
    [run_wall_s] (two clock reads per call, taken only while
    profiling). *)

val set_profiling : t -> bool -> unit
(** Off by default; toggling does not clear collected stats. *)

type tag_profile = {
  fired : int;
  sim_time : Obs.Histo.snapshot;  (** when (in sim time) the tag fired *)
}

type profile = {
  events_fired : int;
  pending : int;
  run_wall_s : float;
      (** CPU seconds spent inside {!run} calls made while profiling *)
  runs : int;  (** number of {!run} calls *)
  tags : (string * tag_profile) list;  (** sorted; empty unless profiling *)
}

val profile : t -> profile
(** Snapshot of the profiling state; cheap, callable mid-run. *)

val pp_profile : Format.formatter -> profile -> unit
