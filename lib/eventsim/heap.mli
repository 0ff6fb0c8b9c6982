(** Binary min-heap keyed by [(float, int)] pairs, stored as parallel
    arrays (unboxed float keys, int sequence numbers, payloads) so the
    steady-state [push]/[pop_value] cycle allocates nothing.

    The integer component is a tie-breaker: the event scheduler uses a
    monotonically increasing sequence number so that events scheduled
    for the same instant fire in FIFO order, which makes simulations
    deterministic. *)

type 'a t

val create : dummy:'a -> 'a t
(** [dummy] fills vacated payload slots so popped values are released
    to the GC immediately; it is never returned by any operation. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> int -> 'a -> unit
(** [push h key seq v] inserts [v] with priority [(key, seq)].
    Allocation-free except when the backing arrays grow. *)

val min_key : 'a t -> float
(** The minimum key, without removing it — the zero-allocation read
    of the next entry's time.  Raises [Invalid_argument] on an empty
    heap. *)

val pop_value : 'a t -> 'a
(** Remove the minimum entry and return its payload alone — no option,
    no tuple.  Pair with {!min_key} when the key is also needed.  The
    vacated slot is released: the heap never retains a reference to a
    popped value.  Raises [Invalid_argument] on an empty heap. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Visit every queued value, in unspecified (array) order. *)

val snapshot : 'a t -> 'a t
(** A detached checkpoint of the queue: heap order, keys and
    tie-break sequence numbers are all preserved.  Values are shared,
    not copied. *)

val restore : 'a t -> 'a t -> unit
(** [restore h s] resets [h] to the state captured by [snapshot]
    ([s]); the snapshot stays valid for further restores. *)
