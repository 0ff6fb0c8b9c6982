(** Cross-validation of the two fidelity levels.

    The paper's numbers are tree-level; our sweeps use the analytical
    builders.  This module checks, over randomized scenarios, that
    the event-driven protocols (full Appendix-A message processing
    with soft state) converge to exactly the distribution the
    analytical builders predict — the evidence that the fast sweeps
    measure the real protocols.  Each protocol is driven by its
    registry row's paper regime ({!Verif.Sut.regime}); none is built
    by hand here. *)

type outcome = {
  scenarios : int;
  exact : int;  (** identical per-link copies and receiver sets *)
  delivered_all : int;  (** at least all receivers served *)
  close : int;  (** all served and tree cost within 20% of the model *)
  mismatches : (int * int) list;
      (** (scenario index, group size) of non-exact runs *)
}

val run :
  ?scenarios:int -> ?seed:int -> Verif.Sut.protocol -> Common.config -> outcome
(** Event-driven runs ({!Common.paper_run}) against the regime's
    analytic reference ({!Common.paper_reference}), one fresh scenario
    each (default 30, seed 42) over the smallest, middle and largest
    sweep sizes.  HBH's converged tree is join-order independent, so
    [exact] should equal [scenarios].  REUNITE's converged protocol
    can still settle into a slightly different capture than the
    instantaneous-propagation model, so [exact] may fall short of
    [scenarios] while [delivered_all] must not.  Raises
    [Invalid_argument] for a protocol outside
    {!Common.paper_protocols}. *)

val pp : Format.formatter -> outcome -> unit
