(** Deterministic pseudo-random number generation.

    Every source of randomness in the simulator flows through this
    module so that experiments are exactly reproducible from a seed.
    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a
    64-bit state advanced by a Weyl sequence and finalized by a strong
    mixing function.  It is fast, has no measurable bias for our use,
    and supports {!split} so that independent subsystems can derive
    independent streams from one master seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same
    future stream as [t]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    (for practical purposes) independent of [t]'s subsequent output.
    Note the child stream depends on how many draws/splits preceded it
    on [t]; for order-independent streams use {!derive}. *)

val derive : seed:int -> index:int -> t
(** [derive ~seed ~index] is a generator determined purely by the pair
    [(seed, index)] — a stateless hash, not a draw from a shared
    generator.  Run [index] therefore gets the same stream regardless
    of which runs precede it or which domain executes it, which is
    what makes parallel Monte-Carlo sweeps bit-reproducible. *)

val derive2 : seed:int -> a:int -> b:int -> t
(** Two-level {!derive} for nested sweeps (e.g. group-size [a], run
    [b]); independent of {!derive} streams in practice. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be
    positive.  Uses rejection sampling, hence unbiased. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the
    given mean (inverse-CDF method).  [mean] must be positive. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> int -> int list
(** [sample t k n] draws [k] distinct integers uniformly from
    [\[0, n)], in random order.  Costs O(k) when [k] is small
    relative to [n] (O(n) otherwise); the result for a given seed
    does not depend on which path ran.  Raises [Invalid_argument] if
    [k > n] or [k < 0]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list; always consumes exactly one
    draw.  Raises [Invalid_argument] on an empty list. *)
