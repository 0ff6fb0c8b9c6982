(** The hand-built asymmetric micro-topologies of Sections 2.3 and 3
    (Figures 2, 3 and 5), encoded with explicit per-direction costs
    that force exactly the unicast routes the paper assumes.  They
    demonstrate — and the test suite asserts — the two REUNITE
    pathologies and HBH's fix. *)

(** Figure 2/5 setting: two (or three) receivers, where REUNITE
    captures r2's join at a node off r2's shortest path. *)
module Detour : sig

  val source : int
  val r1 : int
  val r2 : int

  val table : unit -> Routing.Table.t

  (** With joins in order [r1; r2]: *)

  val reunite_r2_path : unit -> int list option
  (** The detour route REUNITE serves r2 on (S -> R1 -> R3 -> r2). *)

  val hbh_r2_path : unit -> int list
  (** The shortest path HBH serves r2 on (S -> R4 -> r2). *)

  val delay_gap : unit -> float
  (** REUNITE r2 delay minus HBH r2 delay; positive. *)
end

(** Figure 3 setting: REUNITE puts the branching point at R1 although
    the flows only diverge at R6, duplicating packets on link
    R1-R6. *)
module Duplication : sig

  val source : int
  val r1 : int
  val r2 : int

  val shared_link : int * int
  (** The directed link (R1, R6) that REUNITE loads twice. *)

  val table : unit -> Routing.Table.t

  val reunite_copies_on_shared_link : unit -> int
  (** 2, with joins in order [r1; r2]. *)

  val hbh_copies_on_shared_link : unit -> int
  (** 1. *)

  val reunite_cost : unit -> int
  val hbh_cost : unit -> int
end
