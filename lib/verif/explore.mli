(** Bounded-depth forward search over the scenario alphabet.

    DFS with hash-based dedup on canonical state digests; branching
    uses the checkpoint layer (save before an event, restore after the
    subtree), so shared prefixes are never re-simulated.  The initial
    state and every transition go through {!Scenario.settle}, whose
    [fresh] test is the visited set: a state is keyed on the digest
    quiescence settled on and judged only the first time it is seen.
    The delivery probe goes first and mutates the SUT inside the
    step's checkpoint, so the structural oracles judge the state one
    probe horizon later.  A violating state records the event path as
    a counterexample and prunes its subtree; an unsettled one records
    it as an oscillation — an unsettled initial state is the
    oscillation with the empty path, and nothing is explored.

    Fully deterministic in [(sut, config)]: the alphabet and the
    per-expansion visit order derive from the seed. *)

type counterexample = {
  events : Scenario.event list;
  violations : Oracle.violation list;
}

type outcome = {
  states : int;
  transitions : int;
  oracle_checks : int;
  counterexamples : counterexample list;  (** oracle violations *)
  oscillations : Scenario.event list list;
      (** paths whose end state never settled within the quiescence
          budget: a limit cycle, reported separately because the
          oracles only apply at quiescent points *)
  depth : int;
  seed : int;
}

type config = {
  depth : int;  (** event-sequence length bound *)
  max_states : int;  (** distinct-state budget *)
  seed : int;
  alphabet : Scenario.alphabet option;
}

val default_config : config
(** depth 4, 1500 states, seed 42, derived alphabet. *)

val run : ?config:config -> Sut.t -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
