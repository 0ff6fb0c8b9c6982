(** A streaming mean (Welford's running update).

    Accumulates the mean of a stream of floats in O(1) memory without
    catastrophic cancellation.  Used to average experiment metrics over
    simulation runs. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** Fresh, empty accumulator. *)

val add : t -> float -> unit
(** Feed one observation. *)

val add_int : t -> int -> unit
(** Convenience: [add t (float_of_int v)]. *)

val mean : t -> float
(** Arithmetic mean; [nan] when empty. *)
