(** Fixed-capacity ring buffer: O(1) push, oldest entry evicted when
    full.  The storage backing every bounded trace. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val length : 'a t -> int
(** Entries currently held, [<= capacity]. *)

val dropped : 'a t -> int
(** Entries evicted (oldest-first) since creation — the truncation
    the ring's bound has cost so far. *)

val high_water : 'a t -> int
(** Maximum {!length} reached since creation; [high_water] below the
    capacity proves the bound never bit. *)

val push : 'a t -> 'a -> unit
(** Appends; drops the oldest entry once at capacity (counted in
    {!dropped}). *)

val last : 'a t -> int -> 'a list
(** [last t n]: the most recent [min n (length t)] entries, oldest of
    them first. *)
