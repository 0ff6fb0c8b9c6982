(** Fixed-bucket histograms.

    Cumulative-free, allocation-free on the hot path: [observe] is a
    short linear scan over the bucket bounds plus three mutations.
    Bounds are fixed at creation — the price of staying cheap enough
    to leave always-on. *)

type t

val create : ?buckets:float array -> unit -> t
(** [buckets] are upper bounds, strictly increasing; observations
    above the last bound land in an overflow bucket.  Raises
    [Invalid_argument] on an empty or non-increasing bound array. *)

val bounds : t -> float array
(** The bucket upper bounds this histogram was created with. *)

val observe : t -> float -> unit
(** NaN observations are quarantined in a separate tally (the
    snapshot's [nans]) —
    excluded from the buckets, [count], [sum], [min] and [max] — so
    one bad sample can neither poison the moments nor dilute the
    mean and quantile ranks. *)

val count : t -> int
(** Finite observations (NaNs excluded). *)

val sum : t -> float

val reset : t -> unit

val merge : t -> t -> unit
(** [merge dst src] adds [src]'s buckets, moments and NaN tally into
    [dst] — the combination step for per-domain registries after a
    parallel sweep.  All fields combine commutatively except the
    float [sum], so merging in run order reproduces a sequential
    sweep's sum bit-for-bit.  Raises [Invalid_argument] if the bucket
    bounds differ. *)

(** {1 Snapshots} *)

type snapshot = {
  buckets : (float * int) list;  (** (upper bound, count) per bucket *)
  overflow : int;  (** observations above the last bound *)
  count : int;  (** finite observations *)
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  nans : int;  (** quarantined NaN observations *)
}

val snapshot : t -> snapshot

val quantile : snapshot -> float -> float
(** [quantile s q] estimates the [q]-quantile ([0 <= q <= 1]) by
    linear interpolation within the bucket holding the target rank,
    clamped to the observed [[min, max]].  Ranks falling in the
    overflow bucket report [max] (a lower bound on the true tail).
    Edge cases are well-defined: 0 when empty, and exactly the
    observed value when all observations are equal (in particular a
    single observation).  [nan] only for a NaN [q]. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
(** One line: count/mean/min/max/p50/p95/p99 plus the non-empty
    buckets. *)
