(** Scenario events: the explorer's alphabet, how each event drives
    the SUT, the quiescence test, and the one runner whose recorded
    {!Fault.Plan} replays as a fixture. *)

type event =
  | Join of int
  | Leave of int
  | Link_down of int * int
  | Link_up of int * int
  | Crash of int
  | Restart of int
  | Loss_burst of float
      (** background Bernoulli loss for two refresh periods, then
          clear — exercises lost control messages *)
  | Reorder_burst of float * float
      (** bounded reordering (window, prob) for two refresh periods,
          then clear — control messages overtake each other *)
  | Dup_burst of float
      (** duplication probability for two refresh periods, then
          clear — every message may arrive twice *)
  | Partition_cycle of int list
      (** named partition of the island, reconverge, one t2 of
          isolation, heal, reconverge — a self-contained cycle (the
          explorer never carries an open partition between states) *)
  | Age  (** run one t2 with no stimulus: pure soft-state decay *)

val pp_events : Format.formatter -> event list -> unit

type alphabet = {
  joins : int list;
  links : (int * int) list;
  crashes : int list;
  islands : int list list;
}
(** The seeded part of an alphabet.  Every alphabet also carries the
    three delivery bursts — [Loss_burst 0.3], [Reorder_burst (2, 0.3)]
    and [Dup_burst 0.3] — and [Age]. *)

val default_alphabet : Sut.t -> seed:int -> alphabet
(** A deterministic seeded slice of the SUT's fault surface: 8
    churnable members, 5 failable {e core} links (host access links
    are excluded — cutting a member off merely excuses it from the
    oracles), 2 non-source routers to crash, one singleton-host
    partition/heal cycle. *)

val enabled : Sut.t -> alphabet -> event list
(** The alphabet instantiated against the current state: joins for
    non-members, leaves for members, each link/node in the direction
    that changes it, then the loss, reorder and duplication bursts,
    the partition cycles and [Age]. *)

val apply : Sut.t -> event -> unit
(** Drive one event: inject each of its timed directives at its
    instant (the stepper {!replay_plan} uses too), then run to the end
    of its span.  Topology events reconverge
    {!Fault.Plan.detection_lag} after the change; delivery bursts clear
    after two of the SUT's refresh periods; a partition cycle
    reconverges, holds the cut for the SUT's [t2], heals and
    reconverges; [Age] is [t2] without a directive.  Every directive is
    a no-op when it does not apply — the shrinker replays arbitrary
    subsequences. *)

val quiesce : ?budget_factor:float -> Sut.t -> (float * string) option
(** Run refresh windows until the canonical state digest is stable
    across two consecutive windows (three equal samples — one window
    can coincide mid-decay when a stray in-flight refresh shifts a
    deadline by exactly one window).  [Some (elapsed, digest)] on
    success, [digest] being {!Sut.state_digest} of the settled state
    the SUT is left in; [None] if still changing after
    [budget_factor * t2] (default 4) of simulated time — a protocol
    oscillation. *)

type point =
  | Unsettled  (** quiescence ran out of budget: no verdict *)
  | Seen  (** settled, but [fresh] rejected its digest: not judged *)
  | Judged of Oracle.violation list  (** settled and judged *)

val settle : ?fresh:(string -> bool) -> Sut.t -> point
(** The one settle-and-judge step, shared by {!run}, {!replay_plan}
    and {!Explore.run}: {!quiesce}, then, if [fresh] (default: always
    true) accepts the settled digest, {!Oracle.check} inside one
    checkpoint.  [fresh] runs at the settled point, before any probe.
    The SUT is left in the settled state: the probe's clock and dedup
    state are rewound.  Only this step calls {!Oracle.check}. *)

val run : Sut.t -> event list -> Fault.Plan.t * Oracle.violation list
(** The one way to run an event list outside {!Explore.run}, on its
    timeline: {!settle} the initial state, then {!apply} each event
    and {!settle} again.  An unsettled point gets no verdict and ends
    the run — an initial state included; the first violation ends it
    too.  Returns that violation set (or [[]]) and the directives
    injected, each at its offset from the SUT's clock when [run] began
    — for a fresh SUT, its start, so {!replay_plan} on a fresh SUT
    re-runs this timeline.  A trailing [Age] injects nothing and
    leaves no trace in the plan. *)

val replay_plan : Sut.t -> Fault.Plan.t -> Oracle.violation list
(** Run a plan's directives at their offsets from the SUT's clock,
    then {!settle}: the end state's violations, or [[]] when it does
    not settle. *)
