(** Exact summaries of durations over simulated time.

    A span is an operation with a start and an end instant — member
    7's join reaching its first packet, a receiver's repair after a
    fault.  The experiments that time them keep the durations
    themselves; this module summarises them exactly, so the quantiles
    are precise rather than bucket-interpolated, and under a seeded
    run the summary is reproducible. *)

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

val pp_stats : Format.formatter -> stats -> unit
