(** A deadline-coalescing timer wheel.

    A standalone timer chain costs one engine event per timer per
    period; a runtime hosting k channels' tick/sweep/join timers
    would keep O(k) events in flight for each shared period.  A wheel
    groups all entries expiring at the same instant into one bucket
    backed by a single engine event, firing members in insertion
    order.

    Determinism contract: an entry's deadline sequence ([now +. start],
    then [d +. period] from each fire instant [d]) is bit-identical to
    the equivalent timer chain (the reference chains, which re-arm
    with a fresh engine event after each fire, are [Timer] in
    [test/support]), and entries only share a bucket when they were
    armed in the same engine instant — the case where separate timers
    are provably adjacent in the engine's same-time tie-break (any
    event scheduled between their arms is a message whose delay is
    shorter than every timer period, so it lands before the shared
    deadline).  Firing a bucket therefore runs its members exactly
    when and in the order the standalone timers would have.  The
    argument holds per wheel: an entry of another wheel on the same
    engine, armed between two merged arms for the same deadline, fires
    after both instead of between them.  A wheel with a single entry
    never merges, so it fires exactly as its timer chain.  [stop]
    cancels the backing event when a bucket empties; a stopped entry
    never causes a no-op engine fire.

    Re-arm in place: when a bucket fires, the first of its members
    that re-arms into no existing bucket takes the fired bucket itself
    — record, member arrays, closure and engine handle — through
    {!Engine.requeue}, which gives it the sequence number a fresh
    event would have had.  Deadlines sit in all-float records and
    members in arrays, so a steady-state period (every member re-arms
    with the same period) allocates only the boxed deadline handed to
    the engine, whatever the bucket's size. *)

type t
(** A wheel bound to one engine (and one optional profiling tag). *)

type entry
(** A periodic member of a wheel. *)

val create : ?tag:string -> Engine.t -> t

val every : t -> ?start:float -> period:float -> (unit -> unit) -> entry
(** [every w ~start ~period f] runs [f] at [now +. start] and every
    [period] after each firing.  [start] defaults to [period].
    Raises [Invalid_argument] if [period <= 0]. *)

val stop : entry -> unit
(** Removes the entry from its pending bucket; if the bucket empties,
    cancels the backing engine event.  Idempotent.  Safe to call from
    within any wheel action, including the entry's own. *)

val active : entry -> bool

(** {1 Snapshot / restore}

    A wheel's mutable footprint, for coordinated rollback with
    {!Engine.snapshot}/{!Engine.restore}: restore the engine first
    (resurrecting the buckets' pending events in place), then the
    wheel.  Entries created after [save] are dropped; entries stopped
    after [save] become active again.

    [save] captures each armed bucket's deadline, birth instant and
    members in order: a bucket re-armed in place after [save] has new
    values in all three, and [restore] puts the saved ones back (the
    engine restore has already put its event back at the saved time).
    One snapshot supports any number of restores. *)

type snap

val save : t -> snap
val restore : t -> snap -> unit
