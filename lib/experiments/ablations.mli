(** Ablations that isolate {e why} the paper's results happen.

    The central thesis is that unicast routing {e asymmetry} is what
    hurts REUNITE (and reverse-path trees generally): kill the
    asymmetry and the protocols should converge.  And the recursive
    unicast machinery has a control-plane price the paper never
    quantifies: the overhead experiment measures it on the live
    protocols, reached through the {!Verif.Sut} registry. *)

(** {1 Symmetric-costs ablation} *)

type symmetry_result = {
  asymmetric : Common.result;  (** the paper's setting *)
  symmetric : Common.result;  (** same draws with [c(v,u) := c(u,v)] *)
}

val symmetry :
  ?runs:int -> ?seed:int -> Common.config -> symmetry_result
(** Run the figure-7/8 sweep twice: once as in the paper, once with
    every link's two directed costs forced equal.  Under symmetric
    costs forward and reverse shortest paths coincide (up to ties), so
    PIM-SS matches HBH's delay and REUNITE's detours and duplications
    collapse.  Defaults: 200 runs, seed 42. *)

(** {1 Control-plane overhead} *)

type overhead_point = {
  size : int;
  hops_per_period : (Verif.Sut.protocol * float) list;
      (** per protocol of {!Common.paper_protocols}: control-message
          link traversals per control period, converged *)
}

val overhead :
  ?runs:int -> ?seed:int -> ?sizes:int list -> Common.config -> overhead_point list
(** Run each of {!Common.paper_protocols} to convergence (all joins at
    once, 15 control periods) and measure the steady-state control
    traffic (join + tree + fusion hops) per control period over 10
    more.  Defaults: 5 runs per size, seed 42, sizes from the
    config. *)

val overhead_group : overhead_point list -> Stats.Series.group
(** REUNITE before HBH, the figures' legend order. *)
