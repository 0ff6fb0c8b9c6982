(** Counterexample minimization by delta debugging (ddmin).

    Candidates run through {!Scenario.run} on a {e fresh} SUT from
    the caller's factory — never a checkpoint — so the minimized
    sequence reproduces from a cold start and its recorded plan can be
    committed as a golden {!Fault.Plan} fixture.  A candidate reproduces when it violates
    the {e same oracle} as the original counterexample (details may
    shift while shrinking). *)

val minimize :
  ?jobs:int ->
  make_sut:(unit -> Sut.t) ->
  Explore.counterexample ->
  Scenario.event list
(** Minimize a counterexample's event path, preserving its oracle
    class, to a 1-minimal sequence (removing any single event loses
    the violation).  [jobs > 1] probes the complements of each
    granularity level concurrently; the success at the lowest index
    wins, making the result independent of [jobs].  Each replay bumps
    [verif.shrink.replays]. *)
