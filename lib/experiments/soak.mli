(** The long-horizon soak harness behind [hbh_sim soak]: each
    protocol runs N simulated hours of sustained membership churn
    under a seeded hostile delivery stream — per-hop jitter, bounded
    reordering, duplication, burst loss, a control-plane drop window
    and one named partition/heal cycle (with routing reconvergence,
    so the route-epoch freshness guard of DESIGN.md §6b is exercised)
    — with {!Verif.Monitor} armed throughout.

    A run {e fails} if any monitor violation is confirmed or if a
    stable receiver's outage never heals (still silent over the last
    2·t2 of the probe stream).  Everything is deterministic in
    [seed]: the receiver draw, the churn schedule and every hostile
    coin flip, so two runs with the same seed are bit-identical.

    Each protocol's run is one {!Faults.stream}; this module adds the
    churn schedule, the hostile plan, the armed monitor and the
    unhealed-outage verdict.  It sets no event bound, so a long soak
    never trips the faults budget. *)

type result = {
  r_proto : Verif.Sut.protocol;
  r_churn_events : int;
  r_probes : int;  (** sequenced data probes sent *)
  r_deliveries : int;
  r_checks : int;  (** monitor probes run *)
  r_violations : Verif.Monitor.confirmed list;
  r_unhealed : int list;  (** stable receivers silent at the end *)
  r_report : Fault.Recovery.report;
      (** degradation during the partition: goodput floor, worst
          outage, control inflation while broken *)
  r_timeline : Obs.Timeline.t;
      (** deliveries / control hops / member count / confirmed
          violations sampled every 100 time units *)
}

val failed : result -> bool
(** Confirmed violations or unhealed outages. *)

val min_horizon : float
(** Shortest usable horizon (time units): below this there is no room
    for a partition/heal cycle plus recovery. *)

val run :
  ?seed:int -> ?protocols:Verif.Sut.protocol list -> hours:float -> unit -> result list
(** Run the soak (default: every registered protocol, seed 42) on the ISP
    topology for [hours] simulated hours.  Resets
    {!Obs.Metrics.default} on entry; per-protocol recovery metrics
    land under [soak.<proto>.*].  Raises [Invalid_argument] if
    [hours] is non-positive or the horizon is under {!min_horizon}. *)

val pp_results : Format.formatter -> result list -> unit
