(** The fault-recovery experiment: every registered protocol instance
    (HBH, REUNITE, PIM-SSM, HPIM-DM) driven
    through identical fault plans — a mid-tree router crash with
    restart, a tree-link failure with restoration (both with routing
    reconvergence shortly after each topology change), and a 30%
    everywhere loss burst — while a sequenced probe stream measures
    per-receiver time-to-repair, lost and duplicated deliveries and
    control-overhead inflation.

    One driver, {!stream}, runs every probe stream here and in
    {!Soak}.  A fault case adds its plan, the {!event_budget} bound
    and optional instrumentation; join latency adds staggered joins,
    times each one to its first delivery and takes the same bound;
    {!Soak} adds churn, the hostile plan and an armed monitor.

    Everything is deterministic in [seed]: two runs with the same seed
    produce identical outcomes (the acceptance criterion behind
    [hbh_sim faults --seed N]).  [run] resets the default metrics
    registry on entry, so each run's snapshot stands alone — running
    the suite twice yields the same snapshot as running it once. *)

type scenario = Crash | Link_failure | Loss_burst

val all_scenarios : scenario list
val scenario_name : scenario -> string

type outcome = {
  topology : string;
  scenario : scenario;
  proto : Verif.Sut.protocol;
  target : string;  (** crashed router / failed link / loss rate *)
  budget : float;  (** the [2 * t2] repair budget *)
  report : Fault.Recovery.report;
  fault_drops : int;  (** loss + link-down + node-down drops *)
  runaway : bool;
      (** the case fired {!event_budget} events before its horizon and
          was stopped there: not recovered, whatever [report] says of
          the prefix that ran.  Its row reads [runaway]. *)
}

val event_budget : int
(** Events one case may fire between convergence and its horizon: a
    57x margin over the largest HBH, PIM-SSM or HPIM-DM case on seeds
    0..1000, so only REUNITE's runaway duplication reaches it. *)

val pick_crash_router :
  Routing.Table.t -> source:int -> receivers:int list -> int
(** The transit router crossed by the most receivers' unicast paths —
    the "mid-tree" crash target (the source's attachment router is
    avoided when alternatives exist). *)

val pick_tree_link :
  Routing.Table.t -> source:int -> receivers:int list -> int * int
(** The router-router link carrying the most receivers' paths. *)

val t2 : float
(** The common repair deadline: every protocol's repair budget is
    [2 * t2], with [t2] HBH's 550 (PIM-SSM's slowest deadline is its
    oif holdtime and hard-state HPIM-DM has none), so the table stays
    comparable across protocols. *)

val delivery_slack : float
(** How long before its horizon a probe stream stops sending: the
    delivery horizon the lost count waits out. *)

val session : Verif.Sut.protocol -> Topology.Graph.t -> source:int -> Verif.Sut.t
(** Fresh session (default config) on a private copy of [graph]. *)

val plan_of : scenario -> crash_node:int -> link:int * int -> Fault.Plan.t
(** The canonical fault plan for a scenario (crash+restart, link
    down+up, or loss burst) on the chosen targets. *)

(** {1 The probe stream}

    The paper's live-tree measurement (§4): a sequenced probe stream
    down a ready session, every copy counted at the receivers. *)

type stream = {
  recovery : Fault.Recovery.t;
      (** fed every probe sent, every copy delivered and the control
          samples *)
  report : Fault.Recovery.report;  (** read at the horizon *)
  timeline : Obs.Timeline.t option;  (** times relative to the start *)
  drops : int;  (** loss + link-down + node-down drops during the run *)
  stopped : bool;
      (** fired [max_events] events before the horizon, not counting
          the [timeline] sampler's and the [monitor]'s *)
}

val stream :
  ?max_events:int ->
  ?timeline:float * (string * (Fault.Recovery.t -> float)) list ->
  ?monitor:Verif.Monitor.t ->
  ?fault_at:float ->
  ?heal_at:float ->
  ?plan:Fault.Plan.t ->
  ?probe_start:float ->
  seed:int ->
  horizon:float ->
  receivers:int list ->
  Verif.Sut.t ->
  stream
(** Run a ready session [horizon] time units past its clock: probes
    every 50 units from [probe_start] (default 50) until
    {!delivery_slack} before the horizon, control hops sampled at the
    start, at [fault_at] and [heal_at] (the fault window the recovery
    is told) and at the end, [plan] installed with [seed], the named
    [timeline] probes sampled at the given interval, [monitor]
    stopped at the end.  [max_events] bounds the events fired besides
    the sampler's and the monitor's. *)

(** {1 Observation}

    Instrumentation is strictly read-only: timeline probes and
    monitor checks read state and schedule only their own timer
    events, which no event budget counts, so an instrumented run's
    outcomes — and the default stdout — are identical to a plain
    run's. *)

type instrument = {
  i_timeline : float option;  (** sampling interval, when wanted *)
  i_monitor : bool;  (** arm {!Verif.Monitor} per case *)
}

type case_obs = {
  c_label : string;  (** ["<topology>/<scenario>/<protocol>"] *)
  c_timeline : Obs.Timeline.t option;
      (** per-interval recovery curve: repaired receivers, distinct
          deliveries, cumulative control hops — times relative to the
          case's converged start *)
  c_monitor : Verif.Monitor.t option;  (** stopped, ready to summarize *)
  c_repair : Obs.Span.stats;
      (** exact quantiles over the receivers' [time_to_repair] *)
}

val run_observed :
  ?instrument:instrument ->
  ?seed:int ->
  ?scenarios:scenario list ->
  ?protocols:Verif.Sut.protocol list ->
  ?jobs:int ->
  unit ->
  outcome list * case_obs list
(** The full experiment: every (scenario, protocol) pair on the ISP
    topology (8 receivers) and the 50-node random topology (15
    receivers).  Resets {!Obs.Metrics.default} on entry so each
    invocation's metrics stand alone.  Recovery metrics are exported
    under [fault.exp.<topo>.<scenario>.<proto>] prefixes, and
    per-receiver repair times also feed the labeled
    [span.time_to_repair{protocol="..."}] histogram.  [jobs > 1]
    shards the cases across domains; output is byte-identical for
    every [jobs]. *)

val headers : string list
val row : outcome -> string list
val pp_outcomes : Format.formatter -> outcome list -> unit

(** {1 Join latency}

    The paper's join-latency question: with the stream already
    flowing (anchored by one member, which is not timed), each
    remaining receiver joins one at a time, and its join latency runs
    from the instant it subscribes to its first delivered packet. *)

type join_latency = {
  jl_topology : string;
  jl_proto : Verif.Sut.protocol;
  jl_stats : Obs.Span.stats;
      (** exact quantiles over the joins that reached a packet *)
  jl_runaway : bool;
      (** the stream fired {!event_budget} events before its horizon
          and was stopped there: [jl_stats] covers only the prefix
          that ran *)
}

val measure_join_latency :
  ?seed:int -> ?protocols:Verif.Sut.protocol list -> unit -> join_latency list
(** Both evaluation topologies (8 and 15 receivers, like {!run_observed}). *)
