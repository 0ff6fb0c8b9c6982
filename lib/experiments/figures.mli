(** The paper's evaluation figures.

    Figures 7(a,b) and 8(a,b) come from the same two Monte-Carlo
    sweeps — one per topology — reporting respectively the average
    tree cost (packet copies) and the average receiver delay, for
    PIM-SM, PIM-SS, REUNITE and HBH, as the group size varies.

    Each sweep resets the default metrics registry on entry, so its
    snapshot stands alone: two consecutive sweeps report the same
    numbers as one. *)

val isp : ?runs:int -> ?seed:int -> ?jobs:int -> unit -> Common.result
(** The ISP-topology sweep behind figures 7(a) and 8(a). *)

val rand50 : ?runs:int -> ?seed:int -> ?jobs:int -> unit -> Common.result
(** The 50-node-random sweep behind figures 7(b) and 8(b). *)

(** {1 Headline comparisons (Section 4.2 prose)} *)

type headline = {
  hbh_cost_advantage_pct : float;
      (** paper: ~5% (ISP), ~18% (RAND50) over REUNITE *)
  hbh_delay_advantage_pct : float;
      (** paper: ~14% (ISP), ~30% (RAND50) over REUNITE *)
}

val headline : Common.result -> headline
