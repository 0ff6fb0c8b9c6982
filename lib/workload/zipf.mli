(** Zipf(s) rank popularity over [0 .. n-1]: rank [k] has weight
    [1 / (k+1)^s].  The channel-popularity model of the multi-channel
    workloads — a few hot groups carry most of the join traffic, a
    long tail barely any (the measured shape of multicast/stream
    audiences). *)

type t

val create : ?s:float -> n:int -> unit -> t
(** Default exponent [s = 1.0] (classic Zipf).  [s = 0] degenerates
    to uniform.  Raises [Invalid_argument] if [n < 1] or [s < 0]. *)

val n : t -> int

val pmf : t -> int -> float
(** Probability of rank [k], [0 <= k < n]. *)
