(** The per-router session core of the protocol runtime.

    [Make (P)] owns everything the four protocol stacks (HBH,
    REUNITE, PIM-SSM, HPIM-DM) would otherwise duplicate: agent
    coverage over the topology, the periodic control/sweep timers,
    per-member join timers, the crash-wipe and restart lifecycle wired
    to the network's node-event listeners, route-change accounting,
    the data-plane loop damper ({!Make.forward_data}), and uniform
    control-overhead metering under the [proto.<name>.*] metric
    namespace.  A protocol supplies its packet-level behavior as a
    {!Make.hooks} record of closures over its own soft state; the
    session decides {e when} and {e where} they run.

    Sessions ride a channel multiplexer ({!Mux}): the network's one
    handler, one delivery hook, node-event/route-change listener and
    timer wheel per network, dispatching O(1) by flat channel key to
    the session's port.  [create] builds a fresh network with its own
    mux; {!Make.create_mux} attaches to a shared one, so k channels
    cost one handler and one coalesced timer wheel.

    Ordering is part of the contract — the control tick fires before
    the sweep at coincident instants (wheel buckets fire in insertion
    order), and listeners register in a fixed sequence — so seeded
    runs replay bit-identically across protocol ports. *)

module type PROTOCOL = sig
  val name : string
  (** Metric/timer namespace component, e.g. ["hbh"]. *)

  val label : string
  (** Human-facing name used in error messages and trace notes,
      e.g. ["HBH"]. *)

  type config

  val default_config : config

  val validate : config -> unit
  (** Raise [Invalid_argument] on a nonsensical configuration. *)

  val join_period : config -> float
  (** Period of each member's join timer. *)

  val control_period : config -> float
  (** Period of the source control cycle and the soft-state sweep. *)

  type msg

  val channel_of : msg -> Mcast.Channel.t
  val kind_of : msg -> Messages.kind

  val extra_counter : string option
  (** Name for the {!Messages.Extra_msg} class counter (e.g. HBH's
      ["fusion_msgs"]); [None] if the protocol has no extra class. *)

  val trace_event : msg -> Obs.Event.kind option
  (** Typed trace event recorded at the originator when the trace is
      active. *)

  type state
  (** The protocol's soft state (tables, dedup caches, ...). *)

  val create_state : config -> state

  val copy_state : state -> state
  (** Deep copy for checkpointing: the copy must share no mutable
      structure with the original. *)
end

(** The hooks-applied session API every protocol instance exports —
    {!Make}'s result with the protocol's own hooks baked into [create]
    and [create_mux].  Generic drivers (the verifier's protocol
    registry, the fault, soak and churn experiments) hold instances as
    first-class [(module S)] values. *)
module type S = sig
  val name : string
  (** Metric/timer namespace component, e.g. ["hbh"]. *)

  val label : string
  (** Human-facing name, e.g. ["HBH"]. *)

  type config

  val default_config : config

  val scale_timers : float -> config -> config
  (** Every time constant of the configuration multiplied by the
      factor: the protocol stays self-consistent, only its pace
      changes. *)

  type jx
  type tx
  type extra

  type msg = (jx, tx, extra) Messages.t
  (** A {!Messages.t} instance, so generic code can read [Data]'s
      [seq]. *)

  type t

  val create :
    ?config:config ->
    ?trace:Obs.Trace.t ->
    ?channel:Mcast.Channel.t ->
    Routing.Table.t ->
    source:int ->
    t
  (** Fresh engine and network (with a private mux), agents installed,
      timers armed.  The source node may be a host or a router. *)

  type mux

  val mux : msg Netsim.Network.t -> mux

  val create_mux :
    ?config:config -> ?channel:Mcast.Channel.t -> mux -> source:int -> t
  (** Attach one more channel to a shared multiplexer.  Sessions
      sharing a mux must snapshot/restore together. *)

  val subscribe : t -> int -> unit
  (** Raises [Invalid_argument] for the source.  Idempotent. *)

  val unsubscribe : t -> int -> unit

  val members : t -> int list
  (** Ascending. *)

  val send_data : t -> unit
  (** Fire-and-forget data packet down the current tree (no
      accounting reset). *)

  val data_seq : t -> int
  (** Sequence number of the last data packet sent (0 initially);
      unchanged when {!send_data} had no tree to send down. *)

  val data_targets : t -> int -> int list
  (** The data-plane fan-out rule, read now: the nodes a data packet
      addressed to the node is copied to ([[]] without forwarding
      state) — what the data plane forwards with. *)

  val run_for : t -> float -> unit

  val control_period : t -> float
  (** The config's {!PROTOCOL.control_period}: the unit of {!converge}. *)

  val converge : ?periods:int -> t -> unit
  (** Run for [periods] (default 12) control periods. *)

  val probe : t -> Mcast.Distribution.t
  (** Reset data accounting, send one data packet, run a delivery
      horizon and return the measured distribution. *)

  val engine : t -> Eventsim.Engine.t
  val network : t -> msg Netsim.Network.t
  val config : t -> config
  val source : t -> int
  val channel : t -> Mcast.Channel.t

  val control_overhead : t -> int
  (** Control-message link traversals so far. *)

  val state_size : t -> int
  (** Live protocol state entries right now, source included (the
      value the [proto.<name>.state_entries] gauge samples after each
      sweep). *)

  type snapshot

  val snapshot : t -> snapshot
  (** Protocol soft state, membership and the whole underlying
      network/engine (see {!Make.snapshot}). *)

  val restore : t -> snapshot -> unit
  (** A snapshot may be restored any number of times. *)
end

val probe_horizon : float -> float
(** [probe_horizon control_period] is how long a delivery probe runs
    after its data packet: 500 time units or two control periods,
    whichever is longer.  Every probe ({!S.probe} and the verifier's)
    reads it here. *)

module Make (P : PROTOCOL) : sig
  val name : string
  val label : string

  type t

  type handler = t -> int -> P.msg Netsim.Packet.t -> Netsim.Network.verdict
  (** Like {!Netsim.Network.handler}, but handed the session instead
      of the raw network.  Handlers only ever see packets on the
      session's own channel — the session pre-filters, so protocols
      need no channel guards (and no unreachable catch-all arms). *)

  type hooks = {
    router : handler;
        (** runs at every multicast router
            ({!Topology.Graph.multicast_router}) except the source *)
    source_agent : handler;  (** runs at the source node *)
    member_agent : handler option;
        (** runs at member {e hosts} from their first subscribe on
            (router members are covered by [router]) *)
    tick : (t -> unit) option;
        (** periodic source-side control cycle (HBH tree cycle,
            REUNITE source tick), every control period *)
    sweep : t -> now:float -> unit;  (** periodic soft-state expiry *)
    state_size : t -> int;
        (** live soft-state entries, sampled into the
            [proto.<name>.state_entries] gauge after each sweep *)
    crash_wipe : t -> int -> unit;
        (** wipe the node's volatile protocol state (the session has
            already wiped the node's loop-damper record) *)
    join_tick : t -> member:int -> unit;
        (** one member's periodic join, every join period *)
    on_subscribe : t -> int -> unit;
        (** a member joined, after the session recorded it *)
    on_unsubscribe : t -> int -> unit;
        (** a member left, after its join timer stopped *)
    send_data : t -> unit;
        (** originate one data packet at the source, usually to its
            [data_targets] *)
    data_targets : t -> int -> int list;
        (** the nodes a data packet addressed to the node is copied to
            right now; read by {!forward_data} and by the verifier's
            oracles, so it must not mutate state *)
  }

  type counter
  (** A protocol-specific counter (table update counts etc.) in this
      protocol's [proto.<name>.*] namespace. *)

  val counter : string -> counter
  (** Declare a counter.  Declare at module initialisation, before
      the first session is attached: the name registers at once (so
      the counter appears, zero, in snapshots) and every session binds
      it when attached. *)

  val count : t -> counter -> unit
  (** One add on the session's bound counter, which lives in the
      registry that was current when the session was attached (see
      {!Obs.Metrics.bind}). *)

  val create :
    ?config:P.config ->
    ?trace:Obs.Trace.t ->
    ?channel:Mcast.Channel.t ->
    hooks ->
    Routing.Table.t ->
    source:int ->
    t
  (** Fresh engine and network, agents installed, timers armed. *)

  (** {1 Channel multiplexing} *)

  type mux
  (** A channel multiplexer for this protocol's message type — see
      {!Mux}. *)

  val mux : P.msg Netsim.Network.t -> mux
  (** A fresh multiplexer on the network: one dispatcher, one delivery
      hook, one timer wheel (tagged [proto.<name>.timers]) shared by
      every session subsequently attached with {!create_mux}.  The
      dispatcher becomes the network's handler, so a second mux on one
      network raises [Invalid_argument]. *)

  val create_mux :
    ?config:P.config -> ?channel:Mcast.Channel.t -> hooks -> mux -> source:int -> t
  (** Attach a session to a shared multiplexer: O(1) dispatch per
      packet-hop regardless of how many channels the mux carries.
      Sessions sharing a mux must snapshot/restore together. *)

  (** {1 Group membership} *)

  val subscribe : t -> int -> unit
  (** Raises [Invalid_argument] for the source. Idempotent. *)

  val unsubscribe : t -> int -> unit

  val members : t -> int list
  (** Ascending. *)

  (** {1 Driving} *)

  val run_for : t -> float -> unit
  val control_period : t -> float
  val converge : ?periods:int -> t -> unit

  val send_data : t -> unit
  (** The protocol's [send_data] hook. *)

  val data_targets : t -> int -> int list
  (** The protocol's [data_targets] hook, read now. *)

  val forward_data : t -> at:int -> P.msg Netsim.Packet.t -> seq:int -> unit
  (** The loop damper: fan a data packet out at [at] once per sequence
      number.  A [seq] above the highest one [at] has fanned out is
      copied to [data_targets t at] (read only then), each copy
      metered and emitted as a rewrite from [at]; any other arrival is
      dropped and counted in [proto.<name>.damped_data].  The table is
      checkpointed with the session; a crash wipes the node's
      record. *)

  val probe : t -> Mcast.Distribution.t
  (** Reset data accounting, send one data packet, run long enough
      for delivery, and collect the distribution. *)

  (** {1 Accessors} *)

  val engine : t -> Eventsim.Engine.t
  val network : t -> P.msg Netsim.Network.t

  val wheel : t -> Eventsim.Wheel.t
  (** The session's (possibly mux-shared) timer wheel.  Protocols
      arming their own dynamic timers (e.g. a {!Reliable}
      retransmission pump) must use this wheel, not one of their own:
      its entries coalesce with the session's tick/sweep buckets and
      participate in snapshot/restore. *)

  val graph : t -> Topology.Graph.t
  val channel : t -> Mcast.Channel.t
  val config : t -> P.config
  val source : t -> int
  val state : t -> P.state
  val now : t -> float
  val data_seq : t -> int

  val route_epoch : t -> int
  (** Generation counter over the unicast routing: incremented by
      every reconvergence that changed at least one next hop.
      Protocols stamp soft-state entries with the epoch of the
      forward-path evidence that last validated them (the freshness
      guard): an entry stamped with an older epoch may be stale
      tree structure the current routing no longer supports, and
      refresh paths treat it conservatively. *)

  val control_overhead : t -> int
  (** Control-plane hop count from the network counters. *)

  val state_size : t -> int
  (** The protocol's [state_size] hook, read now. *)

  (** {1 Checkpoint / restore}

      A snapshot captures the session's protocol state (via
      [P.copy_state]), the per-member join timers (and with them the
      membership), data
      sequence and loop damper, {e plus} the underlying
      network/engine state through {!Netsim.Network.snapshot} — so
      restoring rewinds the whole simulation this session runs in.
      With several sessions sharing one network, snapshot/restore them
      together (each session's restore re-restores the shared
      network).  Restoring invalidates
      the routing cache; take snapshots at routing-converged points
      (enforced: the network snapshot raises otherwise). *)

  type snapshot

  val snapshot : t -> snapshot

  val restore : t -> snapshot -> unit
  (** A snapshot may be restored any number of times. *)

  (** {1 For protocol hook bodies} *)

  val next_seq : t -> int
  (** Bump and return the data sequence number. *)

  val meter : t -> from:int -> P.msg -> unit
  (** Count the message against its class counter and record its
      trace event — for sends that bypass {!send} (e.g. in-flight
      rewrites via [Netsim.Network.emit]). *)

  val send : t -> from:int -> dst:int -> kind:Netsim.Packet.kind -> P.msg -> unit
  (** {!meter} + [Netsim.Network.originate]. *)

  val trace_active : t -> bool

  val ev : t -> node:int -> Obs.Event.kind -> unit
  (** Record a typed event on this session's channel; guard with
      {!trace_active} at call sites that would otherwise allocate. *)

  val notef :
    t -> node:int -> ('a, Format.formatter, unit, unit) format4 -> 'a
end
