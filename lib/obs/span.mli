(** Causal spans over simulated time.

    A span is a named operation with a start and an end instant —
    member 7's join converging —
    keyed by an integer (usually the node id) so many can be in
    flight at once.  Durations are recorded exactly, so the
    summary quantiles are precise rather than bucket-interpolated,
    and under a seeded run the whole record is reproducible. *)

type t

val create : unit -> t

val start : t -> string -> key:int -> now:float -> unit
(** Open span [(name, key)] at [now].  Re-starting an already-open
    span abandons the first attempt and
    restarts the clock — the newer episode supersedes it. *)

val finish : t -> string -> key:int -> now:float -> float option
(** Close the span and return its duration; [None] when no such span
    is open (closing is idempotent by construction). *)

val drop : t -> string -> key:int -> bool
(** Abandon an open span without recording a duration (e.g. the
    member unsubscribed before its join completed).  Returns whether
    a span was actually open. *)

val drop_all_open : t -> int
(** Abandon every open span; returns how many there were.  Called when
    a checkpoint restore invalidates in-flight operations. *)

val open_count : t -> int

(** {1 Summaries} *)

type stats = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val stats_of : float list -> stats
(** Exact nearest-rank quantiles over the durations, in any order;
    all fields [nan] when [n = 0]. *)

val stats : ?name:string -> t -> stats
(** {!stats_of} the completed durations. *)

val pp_stats : Format.formatter -> stats -> unit
