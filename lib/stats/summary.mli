(** Streaming summary statistics (Welford's online algorithm).

    Accumulates count, mean, variance and extrema of a stream of
    floats in O(1) memory without catastrophic cancellation.  Used to
    average experiment metrics over simulation runs. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** Fresh, empty accumulator. *)

val add : t -> float -> unit
(** Feed one observation. *)

val add_int : t -> int -> unit
(** Convenience: [add t (float_of_int v)]. *)

val count : t -> int
(** Number of observations so far. *)

val mean : t -> float
(** Arithmetic mean; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance (n-1 denominator); [nan] when [count < 2]. *)

val ci95 : t -> float
(** Half-width of a 95% normal-approximation confidence interval for
    the mean: 1.96 standard errors ([1.96 * sqrt (variance / count)]). *)

val min : t -> float
(** Smallest observation; [nan] when empty. *)

val max : t -> float
(** Largest observation; [nan] when empty. *)

val total : t -> float
(** Sum of all observations. *)

val merge : t -> t -> t
(** [merge a b] summarises the concatenation of both streams
    (Chan et al. parallel update). *)

val pp : Format.formatter -> t -> unit
(** Render as ["mean ± ci95 (n=count)"]. *)
