(** Shared experiment machinery: the four analytic protocols under
    comparison, the Monte-Carlo sweep of Section 4 (500 runs per group
    size, costs and receiver sets redrawn each run), and the paper's
    event-driven run, which reaches each protocol through the
    {!Verif.Sut} registry and drives it by the row's regime. *)

type protocol = Pim_sm | Pim_ss | Reunite | Hbh

val all_protocols : protocol list
(** In the paper's legend order: PIM-SM, PIM-SS, REUNITE, HBH. *)

val protocol_name : protocol -> string

val build :
  ?rp_strategy:Pim.Rp.strategy ->
  protocol ->
  Stats.Rng.t ->
  Workload.Scenario.t ->
  Mcast.Distribution.t
(** One converged distribution tree for the given run.  PIM-SM places
    its rendez-vous point per [rp_strategy] (default
    {!Pim.Rp.Highest_degree}, the operational "RP at the core"
    practice; see EXPERIMENTS.md for the ablation). *)

val state :
  protocol -> Stats.Rng.t -> Workload.Scenario.t -> Mcast.Metrics.state
(** {!build}'s tree's control-plane footprint, PIM-SM's RP placed by
    {!build}'s default strategy. *)

(** Configuration of one topology's sweep. *)
type config = {
  label : string;
  graph : Topology.Graph.t;
  source : int;
  candidates : int list;  (** potential receivers *)
  sizes : int list;  (** group sizes to sweep *)
}

val isp_config : unit -> config
(** The paper's ISP topology: source host 18, sizes 2, 4, ..., 16. *)

val rand50_config : seed:int -> config
(** The paper's 50-node random topology (average degree 8.6,
    generated from [seed]); source is router 0's host, sizes
    5, 10, ..., 45. *)

type result = {
  config : config;
  runs : int;
  cost : Stats.Series.group;  (** Figure 7: avg packet copies vs group size *)
  delay : Stats.Series.group;  (** Figure 8: avg receiver delay vs group size *)
}

val sweep :
  ?protocols:protocol list ->
  ?runs:int ->
  ?seed:int ->
  ?rp_strategy:Pim.Rp.strategy ->
  ?symmetric:bool ->
  ?jobs:int ->
  config ->
  result
(** Runs the Monte-Carlo comparison: for every size and run, draw
    costs and receivers, compute all protocols' trees on the {e same}
    draw, record cost and average receiver delay.  Defaults: all four
    protocols, 500 runs, seed 42, 1 job.  [jobs > 1] shards runs
    across domains ({!Sweep.map_merged}); output is byte-identical
    for every [jobs]. *)

val advantage : Stats.Series.group -> over:string -> of_:string -> float
(** Mean over group sizes of [1 - of_/over] as a percentage — "HBH
    outperforms REUNITE by N%" in the paper's phrasing.  E.g.
    [advantage g ~over:"REUNITE" ~of_:"HBH"]. *)

(** {1 The paper's event-driven run}

    Both raise [Invalid_argument] for a protocol without a
    {!Verif.Sut.regime}. *)

val paper_protocols : Verif.Sut.protocol list
(** The registry's protocols with a regime, in registry order: HBH,
    REUNITE. *)

val paper_run :
  ?trace:Obs.Trace.t ->
  ?profile:bool ->
  Verif.Sut.protocol ->
  Workload.Scenario.t ->
  Mcast.Distribution.t * Eventsim.Engine.profile
(** A fresh default-config session on the scenario, its receivers
    joined and settled by the regime, then probed
    ({!Proto.Session.S.probe}), with its engine profile ([profile],
    default false, switches engine profiling on). *)

val paper_reference :
  Verif.Sut.protocol -> Workload.Scenario.t -> Mcast.Distribution.t
(** The regime's reference tree on the scenario. *)

(** {1 Instrumented companion run}

    The figure commands are analytic — they build trees with
    {!build}, never running the event engine — so a metrics snapshot
    after e.g. [fig7a] holds analytic counters only.  When the CLI's
    observability flags ask for protocol-level telemetry it runs this
    companion sample: one {!paper_run} per protocol of
    {!paper_protocols} on the config's topology with engine profiling
    enabled, which populates the protocol message counters
    ([proto.hbh.join_msgs], [proto.reunite.join_msgs], ...), the
    engine counters and, if [trace] is live, the typed event stream. *)

type instrumented = {
  sample_size : int;  (** receiver-group size of the sample run *)
  receivers : int list;  (** the sampled receiver set, sorted *)
  profiles : (Verif.Sut.protocol * Eventsim.Engine.profile) list;
      (** per protocol of {!paper_protocols} *)
}

val instrumented_sample :
  ?trace:Obs.Trace.t -> ?seed:int -> ?n:int -> config -> instrumented
(** Runs the companion sample on [config]'s topology ([n] defaults to
    the middle sweep size).  Per-tag fired counts are folded into
    {!Obs.Metrics.default} as [<name>.engine.tag.*] counters so they
    travel with metric snapshots. *)
