(** The system under test, seen through the verification layer's
    eyes: a protocol session reduced to the fixed verb set the
    explorer and oracles need — drive time, churn members, inject
    faults, checkpoint/restore, digest state, and expose the
    data-plane fan-out rule.

    The protocol stacks have distinct message types (hence distinct
    network and session types); bundling closures over one concrete
    session erases that type without an existential, and the explorer
    stays monomorphic.

    This module is also the protocol registry: {!protocol} is the one
    protocol enum, and every driver (the experiments, the verifier and
    the CLI) iterates {!all} and reaches a protocol only through its
    row: the session {!instance}, a view, the {!analytic} tree, the
    {!of_string} aliases and, where the paper runs the protocol
    event-driven, its {!regime}.  The view is the protocol's canonical
    table dump plus its own structural oracles ({!t.oracles}): HBH's
    first-join and branch-on-path checks and HPIM-DM's assert and
    neighbor checks live in their rows, REUNITE and PIM-SSM carry
    none, and nothing outside this module compares protocol names.
    Adding a protocol means one {!Proto.Session.S} instance (its
    data-plane fan-out is the session's [data_targets] hook), one view
    and one row here. *)

type violation = { oracle : string; detail : string }
(** One oracle's finding: the oracle's name and what it saw. *)

type t = {
  proto : string;  (** the protocol's canonical {!name}, for labels *)
  graph : Topology.Graph.t;
  table : Routing.Table.t;
  source : int;
  candidates : int list;
      (** hosts scenarios may subscribe (every host but the source by
          default) *)
  control_period : float;  (** refresh period — the quiescence window *)
  t2 : float;  (** state-destruction deadline — bounds the settle budget *)
  engine : Eventsim.Engine.t;
      (** the session's engine — lets runtime monitors arm periodic
          probes alongside the protocol's own timers *)
  trace : Obs.Trace.t;
      (** the session network's trace sink (where monitors record
          violation events) *)
  subscribe : int -> unit;
  unsubscribe : int -> unit;
  members : unit -> int list;
  failed_links : unit -> (int * int) list;
      (** {!Fault.Injector.failed_links} *)
  node_up : int -> bool;
  now : unit -> float;
  run_for : float -> unit;
  converge : unit -> unit;
      (** run the session's default convergence window (12 control
          periods) *)
  send_probe : unit -> int;
      (** send one data packet; its sequence number, or 0 when there
          was no tree to send down *)
  on_delivery : (now:float -> receiver:int -> seq:int -> unit) -> unit;
      (** observe every data delivery with its sequence number *)
  control_hops : unit -> int;  (** control-message link traversals so far *)
  counters : unit -> Netsim.Network.counters;
  spans : Obs.Span.t;
      (** the session's causal spans (the ["join"] family) *)
  install_plan : seed:int -> Fault.Plan.t -> unit;
      (** seed the network's fault RNG and schedule the plan relative
          to now, through the same injector as [inject] *)
  save : unit -> unit -> unit;
      (** checkpoint now; the returned thunk restores it, any number
          of times.  Raises [Invalid_argument] while a topology change
          awaits reconvergence (see {!Netsim.Network.snapshot}). *)
  inject : Fault.Plan.action -> unit;
      (** apply one plan action at the current instant; membership
          hooks are pre-wired, so [Join]/[Leave] work *)
  probe : unit -> (int * float) list;
      (** send one data packet, run a delivery horizon, return its
          [(receiver, delay)] deliveries.  Mutates the clock and the
          dedup state: explorers must checkpoint around it. *)
  dump_tables : Buffer.t -> unit;
      (** write the canonical table dump — the protocol-specific part
          of {!state_digest} — into the digest's buffer *)
  data_targets : int -> int list;
      (** the session's data-plane fan-out rule
          ({!Proto.Session.S.data_targets}), read now: the nodes a
          data packet addressed to the node is copied to, [[]] where
          it holds no forwarding state.  The function the data plane
          forwards with, so the oracles check what actually runs. *)
  intercept_on_path : bool;
      (** REUNITE-style: forwarding state forks traffic {e passing
          through} the node, so the tree oracle must expand interior
          path nodes too.  False for HBH and PIM-SSM (state acts only
          on traffic addressed to the node). *)
  oracles : t -> violation list;
      (** the protocol's own structural oracles, run on the given
          wrapping of this session ([sut.oracles sut]) — HBH's
          [hbh_first_join] and [hbh_branch_on_path], HPIM-DM's
          [hpim_assert_unique], [hpim_assert_losers] and
          [hpim_nbr_consistency] (sharing one read of the neighbor
          tables), nothing for REUNITE and PIM-SSM.  Non-mutating;
          each oracle it runs bumps its {!count_check} counters. *)
}

(** {1 Canonical state digests} *)

val state_digest : t -> string
(** MD5 hex over (members, explicitly failed links, crashed nodes,
    soft-state tables).  Soft-state deadlines are canonicalized to
    coarsely-bucketed {e remaining} times, so states reached along
    different schedules digest equally once settled — and a state
    still draining (entries decaying toward expiry) keeps changing
    digest, which is what makes digest stability a sound quiescence
    test.  Monotonic bookkeeping (sequence numbers, epochs,
    last-seen clocks) is deliberately excluded.

    {b Encoding.}  The hashed bytes are one canonical encoding
    written into one buffer: each int as 8 little-endian bytes
    ([Buffer.add_int64_le]) behind a one-character tag that fixes the
    payload that follows; ['|'] ends each of the members, failed-links
    and crashed-nodes sections, and {!t.dump_tables} fills the rest.
    It parses back
    unambiguously, so two states share a digest exactly when they
    share every digested field.  The digest is an equality key only
    (the explorer's visited set, quiescence, tests): its value is not
    stable across encodings and is never printed. *)

val add_entry : Buffer.t -> now:float -> Proto.Softstate.entry -> unit
(** Append one entry's digest token: ['M'] (marked) or ['e'], then
    node, bucketed remaining freshness and bucketed remaining
    lifetime.  Exposed for tests. *)

(** {1 What every oracle shares} *)

val reachable : t -> bool array
(** Per node: reachable from the source over up links between up
    nodes — the ground truth members are judged against (members the
    topology cut off are excused). *)

val count_check : oracle:string -> bool -> unit
(** [count_check ~oracle hit] bumps [verif.oracle.<oracle>.checks],
    and [.violations] when [hit], in {!Obs.Metrics.default}. *)

(** {1 The protocol registry} *)

type protocol = Hbh | Reunite | Pim_ssm | Hpim_dm

val all : protocol list
(** Registry order. *)

val label : protocol -> string
(** ["HBH"], ["REUNITE"], ["PIM-SSM"], ["HPIM-DM"]. *)

val name : protocol -> string
(** Canonical lower-case spelling: ["hbh"], ["reunite"], ["pim-ssm"],
    ["hpim-dm"], as in a wrapped session's [proto]. *)

val of_string : string -> protocol
(** The canonical name or an alias (["pim"], ["pim_ssm"], ["hpim"],
    ["hpim_dm"]).  Raises [Invalid_argument] otherwise. *)

val instance : protocol -> (module Proto.Session.S)
(** The protocol's session API, for drivers that build their own
    networks and muxes. *)

type tree =
  Routing.Table.t -> source:int -> receivers:int list -> Mcast.Distribution.t

val analytic : protocol -> tree
(** The analytic reference tree: {!Hbh.Analytic.build},
    {!Reunite.Analytic.build}, and {!Pim.Pim_ss.build} for both PIM-SSM
    and HPIM-DM (which forwards along the same source-rooted shortest
    paths). *)

type regime = {
  join_spacing : int;
      (** control periods between consecutive joins; 0 joins all
          receivers at once *)
  settle_periods : int;  (** control periods run after the joins *)
  reference : tree;  (** the analytic tree the probed session must match *)
}
(** How the paper's event-driven runs (§4) take a fresh session to the
    one data packet they measure. *)

val regime : protocol -> regime option
(** [None] for PIM-SSM and HPIM-DM, which the paper does not run. *)

val make : ?candidates:int list -> protocol -> Routing.Table.t -> source:int -> t
(** Create a fresh session of the given protocol (default config) on
    the routing table and wrap it: the one shared wiring applied to
    the protocol's view, with [control_period] and [t2] read from the
    session's own config.  HPIM-DM's hard state digests without
    deadline buckets (entries move only on explicit events); its
    reliable layer's pending slot keys join the digest, so a state
    with unacked control traffic in flight never looks quiescent. *)
