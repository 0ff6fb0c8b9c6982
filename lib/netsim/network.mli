(** The packet-level network simulator.

    Ties a topology, a converged unicast forwarding plane
    ({!Routing.Table}) and an event {!Eventsim.Engine} together.
    Packets travel hop by hop: each traversal of a link takes that
    link's directed delay, and {e every} node a packet visits offers
    it to the network's one handler ({!set_handler}) — this is how HBH
    and REUNITE routers intercept join messages that are not addressed
    to them.  The handler decides which nodes run protocol agents;
    everywhere else (unicast-only routers, the protocols' deployment
    story) it returns {!Forward} and the packet passes transparently.

    The network keeps the accounting the paper measures: copies of
    data packets per directed link, data deliveries at hosts with
    their source-to-receiver delay, and control-message link
    traversals (protocol overhead). *)

type verdict =
  | Consume  (** the handler absorbed the packet; forwarding stops *)
  | Forward  (** continue normal unicast forwarding toward [dst] *)

type 'p t

type 'p handler = 'p t -> int -> 'p Packet.t -> verdict
(** [handler net node packet] runs at every hop the packet makes. *)

val create :
  ?default_ttl:int ->
  ?trace:Obs.Trace.t ->
  Eventsim.Engine.t ->
  Routing.Table.t ->
  'p t
(** Default TTL is 255.  The network's [net.*] counters and the
    [net.delivery_delay] histogram count into the registry that is
    {!Obs.Metrics.default} now (see {!Obs.Metrics.bind}). *)

val engine : 'p t -> Eventsim.Engine.t
val graph : 'p t -> Topology.Graph.t
val table : 'p t -> Routing.Table.t
val trace : 'p t -> Obs.Trace.t
val now : 'p t -> float

val set_handler : 'p t -> 'p handler -> unit
(** Set the network's one per-hop handler; until then every node
    forwards.  One network carries one dispatcher ({!Proto.Mux}), so a
    second call raises [Invalid_argument]. *)

val sink_acquire : 'p t -> int -> unit
(** Mark a node as a data delivery endpoint.  Hosts always are;
    router nodes acting as receivers (the hand-built scenario
    topologies) must be marked explicitly for their deliveries to be
    recorded.  Acquires are counted: the node stays a sink until every
    acquire has been released, so several channels can share one
    member node. *)

val sink_release : 'p t -> int -> unit
(** Undo one {!sink_acquire}; a node with no acquires is left alone. *)

(** {1 Fault injection}

    All fault state is off by default and costs one boolean test per
    hop until the first fault call.  Faults are deterministic: the
    Bernoulli loss draws come from the generator given to
    {!set_fault_rng} (a fixed default stream otherwise). *)

val set_fault_rng : 'p t -> Stats.Rng.t -> unit
(** The stream that decides per-packet Bernoulli losses. *)

val fault_rng : 'p t -> Stats.Rng.t
(** The live fault stream (materializing the default if none was
    set).  Fault machinery wanting probabilistic decisions that stay
    inside the seeded, checkpointable world — e.g. the injector's
    control-drop filter — draws from here. *)

val set_default_loss : 'p t -> float -> unit
(** Bernoulli loss probability of every directed link traversal (0
    turns it off).  A lost copy {e is} transmitted — it counts as a
    link traversal and a data-load copy — and then never arrives. *)

val set_drop_filter : 'p t -> ('p Packet.t -> bool) option -> unit
(** A predicate consulted before every transmission; [true] drops the
    packet (counted as [dropped_filtered], never put on the wire).
    This is the message-class suppression hook the soft-state expiry
    tests use ("drop every join"). *)

(** {2 Adversarial delivery}

    A seeded hostile scheduler replacing the polite FIFO link: extra
    per-hop delay jitter, bounded reordering (a probabilistic
    hold-back of up to a window), in-flight message duplication and
    correlated burst loss.  All knobs are off by default; setting any
    one arms the fault path, and a run with no knobs set draws
    nothing from the fault RNG — seeded digests are unchanged.  Every
    hostile decision comes from the {!set_fault_rng} stream, so a
    hostile run is a pure function of the seed. *)

val set_jitter : 'p t -> float -> unit
(** Max uniform extra delay added to each hop, network-wide.  Jitter
    alone already permits reordering bounded by the jitter
    amplitude. *)

val set_reorder : 'p t -> window:float -> prob:float -> unit
(** With probability [prob], hold a traversal back by an extra
    uniform delay in [\[0, window\]] — bounded reordering: later
    packets on the link overtake the held one. *)

val set_duplication : 'p t -> float -> unit
(** Probability that a link traversal spawns a second, independently
    delayed copy of the packet (counted as its own link traversal). *)

val set_burst_loss : 'p t -> prob:float -> len:int -> unit
(** Correlated loss: each traversal may open a burst ([prob]) that
    eats it and the next [len - 1] traversals of the same directed
    link.  [prob = 0] closes any open bursts. *)

val hostile_active : 'p t -> bool
(** Whether any adversarial knob has ever been set. *)

val set_link_up : 'p t -> int -> int -> bool -> unit
(** Fail ([false]) or restore ([true]) the undirected link — mutates
    the shared topology {e and} arms the per-hop fault check, so
    traffic forwarded onto a failed link is counted as
    [dropped_link_down] (a bare {!Topology.Graph.set_link_up} leaves
    the fast path armed off and the failure invisible).  Routing is
    {e not} recomputed: packets keep following the stale next hops and
    die on the dead link until {!reconverge} — exactly the
    detection-lag window the fault experiments measure.  The routing
    table records the change ({!Routing.Table.set_link_up}, which first
    computes every destination's in-tree on the pre-change graph). *)

val set_node_up : 'p t -> int -> bool -> unit
(** Crash ([false]) or restart ([true]) a node.  A down node neither
    receives, delivers, consumes nor forwards: everything touching it
    is dropped as [dropped_node_down]; the handler is not consulted
    there.  State transitions fire the {!on_node_event} listeners
    (protocol sessions use this to wipe the node's soft state,
    modelling the loss of volatile router memory) and record a typed
    crash/restart trace event. *)

val node_up : 'p t -> int -> bool

val on_node_event : 'p t -> (up:bool -> int -> unit) -> unit
(** Observe crash/restart transitions; listeners stack and fire in
    registration order. *)

val reconverge : 'p t -> int
(** Reconverge unicast routing onto the current topology and announce
    it (the {!on_route_change} listeners fire and a typed
    [Route_reconverge] event is recorded); returns
    {!Routing.Table.reconverge}'s count: the number of (node,
    destination) next hops that changed, over every destination the
    table had cached.  Since {!set_link_up} first caches every
    destination, after a link change that is every destination, not
    only those in use.  After link failures alone the table recomputes
    only the in-trees that crossed a failed link; after a restore, or
    a call with no recorded link change (e.g. after direct cost
    mutations), it recomputes every cached in-tree. *)

val on_route_change : 'p t -> (changed:int -> unit) -> unit
(** Observe reconvergences; [changed = 0] announces a recomputation
    that altered no next hop (protocol sessions use the distinction
    to advance their route epoch only on real change). *)

val on_delivery : 'p t -> (now:float -> node:int -> 'p Packet.t -> unit) -> unit
(** Observe every data delivery as it happens (the recovery-metrics
    hook: the payload still carries its sequence number). *)

val originate :
  'p t -> src:int -> dst:int -> kind:Packet.kind -> 'p -> unit
(** Emit a fresh packet from node [src] toward [dst] at the current
    time.  A packet addressed to its own source is looped back to the
    handler at that node. *)

val emit : 'p t -> at:int -> 'p Packet.t -> unit
(** Send an already-built packet (typically {!Packet.rewrite} of a
    received one, preserving [born]) from node [at] toward its
    destination. *)

(** {1 Accounting} *)

type counters = private {
  mutable originated_data : int;
  mutable originated_control : int;
  mutable data_hops : int;  (** directed-link traversals by data copies *)
  mutable control_hops : int;
  mutable deliveries : int;
      (** data packets that reached a host addressed to it *)
  mutable consumed : int;  (** packets absorbed by the handler *)
  mutable dropped_ttl : int;
  mutable dropped_unreachable : int;
  mutable dropped_loss : int;
      (** Bernoulli losses (transmitted, never arrived) *)
  mutable dropped_link_down : int;  (** forwarded onto a failed link *)
  mutable dropped_node_down : int;  (** touched a crashed node *)
  mutable dropped_filtered : int;  (** suppressed by the drop filter *)
  mutable sunk_at_dst : int;
      (** packets that reached [dst] with no handler claim *)
}
(** Only the network writes these; callers read fields. *)

val counters : 'p t -> counters
(** A copy of the accounting: later traffic does not change it. *)

val data_link_loads : 'p t -> ((int * int) * int) list
(** Copies per directed link since the last {!reset_data_accounting},
    lexicographic order. *)

val data_deliveries : 'p t -> (int * float) list
(** All [(host, delay)] data deliveries since the last reset, in
    delivery-time order.  A host appearing twice received duplicate
    copies. *)

val reset_data_accounting : 'p t -> unit
(** Clears link loads and deliveries (not the global counters): call
    before injecting a probe packet to measure one distribution. *)

(** {1 Checkpoint / restore}

    A snapshot captures the whole simulation state reachable from the
    network: the engine (clock and event queue), the topology's
    mutable link state, the accounting counters, the sink and fault
    tables, the fault RNG (copied, so restored runs redraw the same
    losses), the set of crashed nodes, the [ttl]/[via] of every
    in-flight packet, which its queued hop event carries and writes
    back on arrival, and the routing cache's slots
    ({!Routing.Table.save}: n pointers, the in-trees are shared).
    Restoring rewinds all of it in place.  When the links had to be
    rewritten ({!Topology.Graph.restore_links}) the cache gets the
    snapshot's in-trees back: the snapshot point is routing-converged,
    so they are exactly what SPF would rebuild there, and no SPF runs.
    At an unchanged graph generation every cached in-tree is already
    the snapshot's own and the cache is kept as it is.  Trace and
    {!Obs.Metrics} output are observability, not simulation state, and
    are not rewound.  One snapshot may be restored any number of
    times. *)

type 'p snapshot

val snapshot : 'p t -> 'p snapshot
(** Raises [Invalid_argument] if a topology change is pending
    ({!set_link_up} since the last {!reconverge}; see
    {!Routing.Table.save}): the stale-route detection-lag window cannot
    be captured — reconverge first. *)

val restore : 'p t -> 'p snapshot -> unit
