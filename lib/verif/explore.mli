(** Bounded-depth forward search over the scenario alphabet.

    DFS with hash-based dedup on canonical state digests (the one
    {!Scenario.quiesce} settled on — no second digest per state);
    branching uses the checkpoint layer (save before an event,
    restore after the subtree), so shared prefixes are never
    re-simulated.  At every {e new} quiescent state {!Oracle.check}
    runs inside its own checkpoint: the delivery probe goes first and
    mutates the SUT, so the structural oracles judge the state one
    probe horizon later.  A violating state records the event path as
    a counterexample and prunes its subtree.

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
  check_oracles : bool;
}

val default_config : config
(** depth 4, 1500 states, seed 42, derived alphabet, oracles on. *)

val run : ?config:config -> Sut.t -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
