(** Group-dynamics workloads: timed join/leave schedules.

    Used by the tree-stability experiment (how much does a departure
    perturb the remaining receivers?) and by the event-driven protocol
    demos. *)

type event = Join of int | Leave of int

type schedule = (float * event) list
(** Time-ordered. *)

val poisson :
  Stats.Rng.t ->
  candidates:int list ->
  rate:float ->
  mean_hold:float ->
  horizon:float ->
  schedule
(** Joins arrive as a Poisson process of the given [rate] (candidates
    drawn uniformly among those not currently members); each member
    stays an exponential [mean_hold] time, then leaves.  Events after
    [horizon] are discarded.  Duplicate candidates count once.

    An arrival that finds every candidate a member is lost and draws
    nothing.  Otherwise it makes one [Stats.Rng.int rng nfree] draw
    over the [nfree] free candidates and joins the one at that position
    in ascending order, then draws its hold.  Set-up sorts the
    candidates once, O(n log n) for [n] candidates; each arrival then
    costs O(log n) (a Fenwick tree of free candidates and a heap of
    pending leaves), whatever the group size, plus the final sort of
    the events. *)

(** {1 Multi-channel streams} *)

val multi :
  seed:int ->
  channels:int ->
  candidates:int list ->
  rate:float ->
  popularity:Zipf.t ->
  mean_hold:float ->
  horizon:float ->
  (float * int * event) list
(** One merged (time, channel, event) stream over [channels] channels:
    channel [c] runs its own {!poisson} process at
    [rate *. Zipf.pmf popularity c] (so [rate] is the aggregate join
    rate), seeded from [Stats.Rng.derive ~seed ~index:c] — order-free
    deterministic, the property the [--jobs] byte-identity gate leans
    on.  Ties sort by channel with each channel's own order
    preserved, so one channel's events, in stream order, are exactly
    its standalone schedule.  The candidates are sorted once and shared
    by every channel, so each arrival costs O(log n) as in {!poisson},
    and a channel costs O(n) to start. *)

val members_at : schedule -> float -> int list
(** Group membership just after the given time, ascending. *)

val pp_event : Format.formatter -> event -> unit
