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
    [horizon] are discarded. *)

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
    its standalone schedule. *)

val members_at : schedule -> float -> int list
(** Group membership just after the given time, ascending. *)

val pp_event : Format.formatter -> event -> unit
