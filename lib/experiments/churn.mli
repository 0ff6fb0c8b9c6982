(** Multi-channel churn on internet-scale topologies.

    One network and one channel multiplexer carry hundreds to
    thousands of concurrent channels ({!Proto.Mux} dispatch), with
    Zipf-shaped channel popularity and per-channel Poisson membership
    churn ({!Workload.Churn.multi}).  At each sample instant a
    log-spaced set of Zipf ranks is probed — one data packet, drained
    through the real data plane — and the live tree's cost and
    receiver delay are compared against a freshly built analytic tree
    over the same members: the degradation a protocol accumulates
    between periodic re-optimizations.  The "stretched" arm scales
    every protocol time constant by 10x, widening exactly that gap.

    Each arm drives the {!Verif.Sut.instance} directly, one session
    per channel, and reads a probe with {!Proto.Session.S.probe}'s
    reader ({!Mcast.Distribution.of_accounting}), after a 200-unit
    drain.

    Deterministic in [seed]: every arm rebuilds the identical topology
    and churn schedule from hash-derived streams, so [~jobs] changes
    wall-clock only, never a byte of output. *)

type gen = Power_law | As_hierarchy

val gens : gen list
val gen_name : gen -> string

type params = {
  gen : gen;
  routers : int;  (** generated router count (one host each) *)
  channels : int;
  rate : float;  (** aggregate join rate over all channels *)
  zipf_s : float;
  mean_hold : float;
  horizon : float;
  sample_every : float;
  probe_ranks : int;  (** sampled Zipf ranks probed per sample point *)
}

val default_params : params
(** 5000 routers (power-law), 1000 channels, aggregate rate 0.5,
    Zipf(1), hold 300, horizon 2000, sampled every 500. *)

type sample = {
  s_time : float;
      (** sim time at which the sample's probes start: the nominal
          instant, or later when the previous sample's probes ran past
          it *)
  s_members : int;  (** live members summed over all channels *)
  s_active : int;  (** channels with at least one member *)
  s_probed : int;  (** sampled channels actually probed *)
  s_cost_ratio : float;  (** mean live-tree cost / fresh analytic cost *)
  s_delay_ratio : float;  (** mean live avg-delay / analytic avg-delay *)
  s_delivered : int;  (** probe deliveries received *)
  s_expected : int;  (** probe deliveries owed (members of probed channels) *)
}

type outcome = {
  o_proto : Verif.Sut.protocol;
  o_stretched : bool;
  o_params : params;
  o_samples : sample list;
  o_control_hops : int;
  o_hot_series : int;  (** channels holding their own rollup slot *)
  o_spilled : bool;  (** any channel aggregated into the [_other] series *)
}

val arm_name : bool -> string
(** ["stretched"] or ["normal"]. *)

val run :
  ?protocols:Verif.Sut.protocol list ->
  ?arms:bool list ->
  ?params:params ->
  ?jobs:int ->
  seed:int ->
  unit ->
  outcome list
(** Run every (protocol, arm) case — [arms] lists the [stretched]
    flags, default [[false; true]] — sharding cases over [jobs]
    domains with registries merged in case order.  Per-channel
    [churn.joins]/[churn.leaves]/[churn.cost_ratio] rollups land in
    the default registry under [protocol]/[arm]/[channel] labels
    (Zipf head per-channel, tail in [_other]). *)

val pp_outcomes : Format.formatter -> outcome list -> unit
(** One table row per (protocol, arm, sample instant). *)

val to_json : outcome list -> Obs.Json.t
(** Schema [hbh-churn/1]. *)
