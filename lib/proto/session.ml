module Net = Netsim.Network
module Pkt = Netsim.Packet
module Engine = Eventsim.Engine
module Wheel = Eventsim.Wheel
module Tbl = Node_tables.Int_tbl

module type PROTOCOL = sig
  val name : string
  val label : string

  type config

  val default_config : config
  val validate : config -> unit
  val join_period : config -> float
  val control_period : config -> float

  type msg

  val channel_of : msg -> Mcast.Channel.t
  val kind_of : msg -> Messages.kind
  val extra_counter : string option
  val trace_event : msg -> Obs.Event.kind option

  type state

  val create_state : config -> state
  val copy_state : state -> state
end

module type S = sig
  val name : string
  val label : string

  type config

  val default_config : config
  val scale_timers : float -> config -> config

  type jx
  type tx
  type extra
  type msg = (jx, tx, extra) Messages.t
  type t

  val create :
    ?config:config ->
    ?trace:Obs.Trace.t ->
    ?channel:Mcast.Channel.t ->
    Routing.Table.t ->
    source:int ->
    t

  type mux

  val mux : msg Netsim.Network.t -> mux

  val create_mux :
    ?config:config -> ?channel:Mcast.Channel.t -> mux -> source:int -> t

  val subscribe : t -> int -> unit
  val unsubscribe : t -> int -> unit
  val members : t -> int list
  val send_data : t -> unit
  val data_seq : t -> int
  val data_targets : t -> int -> int list
  val run_for : t -> float -> unit
  val control_period : t -> float
  val converge : ?periods:int -> t -> unit
  val probe : t -> Mcast.Distribution.t
  val engine : t -> Eventsim.Engine.t
  val network : t -> msg Netsim.Network.t
  val config : t -> config
  val source : t -> int
  val channel : t -> Mcast.Channel.t
  val control_overhead : t -> int
  val state_size : t -> int

  type snapshot

  val snapshot : t -> snapshot
  val restore : t -> snapshot -> unit
end

let probe_horizon control_period = Float.max 500.0 (2.0 *. control_period)

module Make (P : PROTOCOL) = struct
  let name = P.name
  let label = P.label

  let hot_counter name =
    Obs.Metrics.hot_counter (Printf.sprintf "proto.%s.%s" P.name name)

  let gauge name =
    Obs.Metrics.hot_gauge (Printf.sprintf "proto.%s.%s" P.name name)

  (* Per-class control-overhead accounting, always on (pre-registered
     counters, integer adds) — one namespace across every protocol.
     The handles name the instruments; each session binds them when
     attached ([meters] below). *)
  let m_join = hot_counter "join_msgs"
  let m_tree = hot_counter "tree_msgs"
  let m_data = hot_counter "data_msgs"
  let m_damped_data = hot_counter "damped_data"
  let m_extra = Option.map hot_counter P.extra_counter
  let m_crash_wipes = hot_counter "crash_wipes"
  let m_route_changes = hot_counter "route_changes"
  let g_state = gauge "state_entries"

  (* The stack's own counters ({!counter}), in declaration order; a
     stack declares them at module initialisation, before any session
     binds them. *)
  let declared = ref [||]

  type counter = int

  let counter name =
    declared := Array.append !declared [| hot_counter name |];
    Array.length !declared - 1

  type meters = {
    join_msgs : Obs.Metrics.counter;
    tree_msgs : Obs.Metrics.counter;
    data_msgs : Obs.Metrics.counter;
    damped_data : Obs.Metrics.counter;
    extra_msgs : Obs.Metrics.counter option;
    crash_wipes : Obs.Metrics.counter;
    route_changes : Obs.Metrics.counter;
    state_entries : Obs.Metrics.gauge;
    stack : Obs.Metrics.counter array;  (* by {!counter} slot *)
  }

  let bind_meters () =
    let bind = Obs.Metrics.bind in
    {
      join_msgs = bind m_join;
      tree_msgs = bind m_tree;
      data_msgs = bind m_data;
      damped_data = bind m_damped_data;
      extra_msgs = Option.map bind m_extra;
      crash_wipes = bind m_crash_wipes;
      route_changes = bind m_route_changes;
      state_entries = Obs.Metrics.bind_gauge g_state;
      stack = Array.map bind !declared;
    }

  let tag suffix = Printf.sprintf "proto.%s.%s" P.name suffix

  type t = {
    config : P.config;
    engine : Engine.t;
    network : P.msg Net.t;
    mux : P.msg Mux.t;
    graph : Topology.Graph.t;
    channel : Mcast.Channel.t;
    ochan : Obs.Event.channel;
    source : int;
    mutable state : P.state;
    hooks : hooks;
    (* One join-timer entry per member: its keys are the members. *)
    member_timers : Wheel.entry Tbl.t;
    member_handler_installed : unit Tbl.t;
    mutable data_seq : int;
    (* The loop damper: per node, the highest data sequence number
       fanned out there (see [forward_data]). *)
    mutable data_seen : int Tbl.t;
    (* Generation counter over the unicast routing: bumped on every
       reconvergence that actually changed a next hop.  Protocols
       stamp soft-state entries with the epoch of the forward-path
       evidence that validated them, so refresh paths can tell
       pre-flap state from state the current routing still supports
       (the freshness guard, DESIGN.md section 6b). *)
    mutable route_epoch : int;
    (* Bound at attach: the session counts into the registry current
       when it was created (the owner contract of
       {!Obs.Metrics.bind}). *)
    meters : meters;
  }

  and handler = t -> int -> P.msg Pkt.t -> Net.verdict

  and hooks = {
    router : handler;
        (** runs at every multicast router except the source *)
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
        (** wipe the node's volatile protocol state *)
    join_tick : t -> member:int -> unit;
        (** one member's periodic join, every join period *)
    on_subscribe : t -> int -> unit;
    on_unsubscribe : t -> int -> unit;
    send_data : t -> unit;
    data_targets : t -> int -> int list;
        (** the nodes a data packet addressed to the node is copied
            to right now *)
  }

  let engine t = t.engine
  let network t = t.network
  let wheel t = Mux.timers t.mux
  let graph t = t.graph
  let channel t = t.channel
  let config t = t.config
  let source t = t.source
  let state t = t.state
  let members t =
    List.sort compare (Tbl.fold (fun m _ acc -> m :: acc) t.member_timers [])
  let now t = Engine.now t.engine
  let data_seq t = t.data_seq
  let route_epoch t = t.route_epoch

  let next_seq t =
    t.data_seq <- t.data_seq + 1;
    t.data_seq

  let trace_active t = Obs.Trace.active (Net.trace t.network)

  (* Record a typed event against this session's channel; callers
     guard with {!trace_active} so nothing is allocated on a quiet
     trace. *)
  let ev t ~node ekind =
    Obs.Trace.event (Net.trace t.network) ~time:(now t) ~node ~channel:t.ochan
      ekind

  let notef t ~node fmt =
    Obs.Trace.notef (Net.trace t.network) ~time:(now t) ~node fmt

  let count t c = Obs.Metrics.incr t.meters.stack.(c)

  let meter t ~from payload =
    (match P.kind_of payload with
    | Messages.Join_msg -> Obs.Metrics.incr t.meters.join_msgs
    | Messages.Tree_msg -> Obs.Metrics.incr t.meters.tree_msgs
    | Messages.Data_msg -> Obs.Metrics.incr t.meters.data_msgs
    | Messages.Extra_msg -> (
        match t.meters.extra_msgs with
        | Some c -> Obs.Metrics.incr c
        | None -> ()));
    if trace_active t then
      match P.trace_event payload with
      | Some ekind -> ev t ~node:from ekind
      | None -> ()

  let send t ~from ~dst ~kind payload =
    meter t ~from payload;
    Net.originate t.network ~src:from ~dst ~kind payload

  (* The session rides a channel multiplexer: the network's one
     handler, one delivery hook and one timer wheel for every session
     on the network, dispatching O(1) by flat channel key.  Foreign channels
     never reach the protocol hooks — the mux pre-filters, so hooks
     need no channel guards. *)
  type mux = P.msg Mux.t

  let mux network =
    Mux.create ~tag:(tag "timers")
      ~key_of:(fun m -> Mcast.Channel.key (P.channel_of m))
      network

  let attach ~config ~hooks ~mux:mx ~channel ~source =
    P.validate config;
    let network = Mux.network mx in
    let engine = Net.engine network in
    let graph = Net.graph network in
    let t =
      {
        config;
        engine;
        network;
        mux = mx;
        graph;
        channel;
        ochan =
          {
            Obs.Event.csrc = Mcast.Channel.source channel;
            group = Mcast.Class_d.to_int32 (Mcast.Channel.group channel);
          };
        source;
        state = P.create_state config;
        hooks;
        member_timers = Tbl.create 16;
        member_handler_installed = Tbl.create 16;
        data_seq = 0;
        data_seen = Tbl.create 16;
        route_epoch = 0;
        meters = bind_meters ();
      }
    in
    (* The session's port in the mux: role-based per-hop dispatch
       (the mux only hands us our own channel's packets at covered
       nodes) and the crash-wipe / route-epoch listeners — each installed once per network by the
       mux, not once per session. *)
    let handle node p =
      if node = t.source then hooks.source_agent t node p
      else if Topology.Graph.is_router graph node then
        if Topology.Graph.multicast_capable graph node then
          hooks.router t node p
        else Net.Forward
      else
        match hooks.member_agent with
        | Some h when Tbl.mem t.member_handler_installed node -> h t node p
        | _ -> Net.Forward
    in
    let port =
      {
        Mux.p_handle = handle;
        (* Deliveries are observed by whoever measures them
           ({!Netsim.Network.on_delivery}); the session needs none. *)
        p_deliver = (fun ~now:_ ~node:_ _ -> ());
        (* A crash wipes the node's volatile soft state; recovery then
           happens purely through the periodic join/refresh cycle.
           The node stays covered (the network skips the handler at
           down nodes), so a restarted node resumes as a blank
           slate. *)
        p_node_event =
          (fun ~up n ->
            if not up then begin
              Obs.Metrics.incr t.meters.crash_wipes;
              Tbl.remove t.data_seen n;
              hooks.crash_wipe t n;
              notef t ~node:n "crash: %s state wiped" P.label
            end);
        (* Unicast reconvergence needs no generic protocol action —
           every forwarding decision re-reads the routing table — but
           sessions account for it, and a reconvergence that really
           moved a next hop opens a new route epoch (a no-op
           recomputation must not: entries would lose their validation
           for no topological reason). *)
        p_route_change =
          (fun ~changed ->
            Obs.Metrics.incr t.meters.route_changes;
            if changed > 0 then t.route_epoch <- t.route_epoch + 1);
      }
    in
    Mux.register mx ~key:(Mcast.Channel.key channel) port;
    (* Dispatcher coverage: every multicast router plus the source (a
       host, or a router that gets its source agent); member hosts are
       covered on first subscribe. *)
    List.iter
      (fun r -> if Topology.Graph.multicast_router graph r then Mux.cover mx r)
      (Topology.Graph.routers graph);
    Mux.cover mx source;
    (* Periodic control cycle, then the soft-state sweep: both on the
       control period, tick first so a cycle's refreshes land before
       the expiry pass at the same instant (wheel buckets fire in
       insertion order). *)
    let period = P.control_period config in
    let wheel = Mux.timers mx in
    (match hooks.tick with
    | Some f -> ignore (Wheel.every wheel ~start:period ~period (fun () -> f t))
    | None -> ());
    ignore
      (Wheel.every wheel ~start:period ~period (fun () ->
           hooks.sweep t ~now:(now t);
           Obs.Metrics.set t.meters.state_entries
             (float_of_int (hooks.state_size t))));
    t

  let fresh_channel ~source = function
    | Some c -> c
    | None -> Mcast.Channel.fresh ~source

  let create ?(config = P.default_config) ?trace ?channel hooks table ~source =
    let engine = Engine.create () in
    let network = Net.create ?trace engine table in
    attach ~config ~hooks ~mux:(mux network)
      ~channel:(fresh_channel ~source channel)
      ~source

  let create_mux ?(config = P.default_config) ?channel hooks mx ~source =
    attach ~config ~hooks ~mux:mx
      ~channel:(fresh_channel ~source channel)
      ~source

  let subscribe t r =
    if r = t.source then
      invalid_arg (Printf.sprintf "%s.subscribe: the source cannot join" P.label);
    if not (Tbl.mem t.member_timers r) then begin
      Net.sink_acquire t.network r;
      (match t.hooks.member_agent with
      | Some _ ->
          if
            Topology.Graph.is_host t.graph r
            && not (Tbl.mem t.member_handler_installed r)
          then begin
            Tbl.replace t.member_handler_installed r ();
            Mux.cover t.mux r
          end
      | None -> ());
      if trace_active t then ev t ~node:r Obs.Event.Member_join;
      t.hooks.on_subscribe t r;
      let entry =
        Wheel.every (Mux.timers t.mux) ~start:0.0
          ~period:(P.join_period t.config) (fun () ->
            t.hooks.join_tick t ~member:r)
      in
      Tbl.replace t.member_timers r entry
    end

  let unsubscribe t r =
    match Tbl.find_opt t.member_timers r with
    | None -> ()
    | Some entry ->
        if trace_active t then ev t ~node:r Obs.Event.Member_leave;
        Wheel.stop entry;
        Tbl.remove t.member_timers r;
        t.hooks.on_unsubscribe t r;
        (* The member-agent install mark stays set (the node stays
           covered); with the member gone the agent forwards
           everything, so it is inert. *)
        Net.sink_release t.network r

  let run_for t d = Engine.run ~until:(now t +. d) t.engine

  let control_period t = P.control_period t.config

  let converge ?(periods = 12) t =
    run_for t (float_of_int periods *. control_period t)

  let send_data t = t.hooks.send_data t
  let data_targets t n = t.hooks.data_targets t n

  (* The loop damper: a node fans each sequence number out once.  The
     targets are read only once the copy is admitted, so a damped copy
     costs no table or routing read. *)
  let forward_data t ~at (p : P.msg Pkt.t) ~seq =
    let seen = Option.value ~default:0 (Tbl.find_opt t.data_seen at) in
    if seq > seen then begin
      Tbl.replace t.data_seen at seq;
      List.iter
        (fun d ->
          meter t ~from:at p.Pkt.payload;
          Net.emit t.network ~at (Pkt.rewrite p ~src:at ~dst:d ()))
        (data_targets t at)
    end
    else Obs.Metrics.incr t.meters.damped_data

  let probe t =
    Net.reset_data_accounting t.network;
    send_data t;
    run_for t (probe_horizon (control_period t));
    Mcast.Distribution.of_accounting ~source:t.source
      (Net.data_link_loads t.network)
      (Net.data_deliveries t.network)

  let control_overhead t = (Net.counters t.network).Net.control_hops
  let state_size t = t.hooks.state_size t

  (* ---- Checkpoint / restore ------------------------------------------ *)

  (* Everything mutable the session owns on top of the network: the
     protocol state (deep-copied — every hook body reads it through
     [state t] at call time, so reassigning the field redirects them
     all), the loop damper, the per-member join-timer entries, whose
     keys are the membership (the mux state restores the wheel buckets
     whose pending engine events the network snapshot already holds,
     so a post-restore [unsubscribe] detaches exactly the right entry),
     the mux's cover/wheel state, and the member-agent install set. *)
  type snapshot = {
    s_state : P.state;
    s_data_seq : int;
    s_data_seen : int Tbl.t;
    s_route_epoch : int;
    s_net : P.msg Net.snapshot;
    s_timers : (int * Wheel.entry) list;
    s_mux : Mux.state;
    s_agents : int list;
  }

  let snapshot t =
    {
      s_state = P.copy_state t.state;
      s_data_seq = t.data_seq;
      s_data_seen = Tbl.copy t.data_seen;
      s_route_epoch = t.route_epoch;
      s_net = Net.snapshot t.network;
      s_timers = Tbl.fold (fun m e acc -> (m, e) :: acc) t.member_timers [];
      s_mux = Mux.save_state t.mux;
      s_agents =
        Tbl.fold (fun m () acc -> m :: acc) t.member_handler_installed [];
    }

  let restore t s =
    Net.restore t.network s.s_net;
    (* The engine is back; now rewind the wheel/cover state built on
       it. *)
    Mux.restore_state t.mux s.s_mux;
    (* Copy again on the way out so one snapshot restores any number
       of times without the live run mutating it. *)
    t.state <- P.copy_state s.s_state;
    t.data_seq <- s.s_data_seq;
    t.data_seen <- Tbl.copy s.s_data_seen;
    t.route_epoch <- s.s_route_epoch;
    Tbl.reset t.member_timers;
    List.iter (fun (m, e) -> Tbl.replace t.member_timers m e) s.s_timers;
    Tbl.reset t.member_handler_installed;
    List.iter
      (fun m -> Tbl.replace t.member_handler_installed m ())
      s.s_agents
end
