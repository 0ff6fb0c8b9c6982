type verdict = Consume | Forward

(* Mutated in place on the hot path; the interface makes the record
   private, so {!counters} hands callers a copy. *)
type counters = {
  mutable originated_data : int;
  mutable originated_control : int;
  mutable data_hops : int;
  mutable control_hops : int;
  mutable deliveries : int;
  mutable consumed : int;
  mutable dropped_ttl : int;
  mutable dropped_unreachable : int;
  mutable dropped_loss : int;
  mutable dropped_link_down : int;
  mutable dropped_node_down : int;
  mutable dropped_filtered : int;
  mutable sunk_at_dst : int;
}

type drop_reason = Loss | Link_failed | Node_failed | Filtered

(* Adversarial delivery knobs.  The record only materializes when a
   knob is first set (arming [faults_on] with it), so a knob-free run
   pays one pointer test per hop in {!transmit} and draws nothing from
   the fault RNG — seeded digests without hostile knobs are unchanged. *)
type hostile = {
  mutable h_jitter : float;  (* max uniform extra delay per hop *)
  mutable h_reorder_window : float;  (* hold-back bound when reorder fires *)
  mutable h_reorder_prob : float;
  mutable h_dup_prob : float;
  mutable h_burst_prob : float;  (* chance a traversal opens a drop burst *)
  mutable h_burst_len : int;
  h_burst_left : (int * int, int) Hashtbl.t;  (* directed link -> drops left *)
}

type 'p t = {
  engine : Eventsim.Engine.t;
  table : Routing.Table.t;
  graph : Topology.Graph.t;
  default_ttl : int;
  trace : Obs.Trace.t;
  (* The one per-hop handler, consulted at every node a packet visits;
     [None] forwards everything. *)
  mutable handler : 'p handler option;
  (* Data sinks by acquire count (see {!sink_acquire}). *)
  sinks : (int, int) Hashtbl.t;
  n_nodes : int;
  (* Data accounting, allocation-free: link loads are an [int array]
     indexed by directed link id ([2 * link id], plus 1 for the
     [v -> u] direction), so a tally is one array increment, and
     deliveries append into growable parallel arrays (unboxed float
     delays) instead of consing a tuple per delivery. *)
  data_loads : int array;
  mutable dl_nodes : int array;
  mutable dl_delays : float array;
  mutable dl_len : int;
  mutable c : counters;
  m : meters;
  (* Fault state.  [faults_on] stays false until the first fault API
     call, so a fault-free simulation pays one boolean test per hop
     and nothing else. *)
  mutable faults_on : bool;
  mutable default_loss : float;
  down_nodes : bool array;  (* by node id *)
  mutable fault_rng : Stats.Rng.t option;
  mutable drop_filter : ('p Packet.t -> bool) option;
  mutable hostile : hostile option;
  mutable node_listeners : (up:bool -> int -> unit) list;
  mutable route_listeners : (changed:int -> unit) list;
  mutable delivery_listeners : (now:float -> node:int -> 'p Packet.t -> unit) list;
}

and 'p handler = 'p t -> int -> 'p Packet.t -> verdict

(* Always-on registry mirrors of the accounting the paper measures,
   bound once per network (the owner contract of {!Obs.Metrics.bind}):
   the hot path pays one integer add per update. *)
and meters = {
  pkt_copies : Obs.Metrics.counter;
  ctl_hops : Obs.Metrics.counter;
  delivered : Obs.Metrics.counter;
  dropped : Obs.Metrics.counter;
  dropped_fault : Obs.Metrics.counter;
  reconverges : Obs.Metrics.counter;
  delivery_delay : Obs.Histo.t;
}

let m_pkt_copies = Obs.Metrics.hot_counter "net.pkt_copies"
let m_ctl_hops = Obs.Metrics.hot_counter "net.ctl_hops"
let m_deliveries = Obs.Metrics.hot_counter "net.deliveries"
let m_dropped = Obs.Metrics.hot_counter "net.dropped"
let m_dropped_fault = Obs.Metrics.hot_counter "net.dropped_fault"
let m_reconverges = Obs.Metrics.hot_counter "net.reconvergences"
let h_delivery_delay = Obs.Metrics.hot_histogram "net.delivery_delay"

let bind_meters () =
  {
    pkt_copies = Obs.Metrics.bind m_pkt_copies;
    ctl_hops = Obs.Metrics.bind m_ctl_hops;
    delivered = Obs.Metrics.bind m_deliveries;
    dropped = Obs.Metrics.bind m_dropped;
    dropped_fault = Obs.Metrics.bind m_dropped_fault;
    reconverges = Obs.Metrics.bind m_reconverges;
    delivery_delay = Obs.Metrics.bind_histogram h_delivery_delay;
  }

let zero_counters () =
  {
    originated_data = 0;
    originated_control = 0;
    data_hops = 0;
    control_hops = 0;
    deliveries = 0;
    consumed = 0;
    dropped_ttl = 0;
    dropped_unreachable = 0;
    dropped_loss = 0;
    dropped_link_down = 0;
    dropped_node_down = 0;
    dropped_filtered = 0;
    sunk_at_dst = 0;
  }

(* [with] always builds a fresh record. *)
let copy_counters c = { c with originated_data = c.originated_data }

let create ?(default_ttl = 255) ?trace engine table =
  let trace = match trace with Some t -> t | None -> Obs.Trace.create () in
  let graph = Routing.Table.graph table in
  {
    engine;
    table;
    graph;
    default_ttl;
    trace;
    handler = None;
    sinks = Hashtbl.create 16;
    n_nodes = Topology.Graph.node_count graph;
    data_loads = Array.make (2 * Topology.Graph.link_count graph) 0;
    dl_nodes = [||];
    dl_delays = [||];
    dl_len = 0;
    c = zero_counters ();
    m = bind_meters ();
    faults_on = false;
    default_loss = 0.0;
    down_nodes = Array.make (Topology.Graph.node_count graph) false;
    fault_rng = None;
    drop_filter = None;
    hostile = None;
    node_listeners = [];
    route_listeners = [];
    delivery_listeners = [];
  }

let engine t = t.engine
let graph t = t.graph
let table t = t.table
let trace t = t.trace
let now t = Eventsim.Engine.now t.engine

let set_handler t h =
  match t.handler with
  | Some _ -> invalid_arg "Network.set_handler: a handler is already set"
  | None -> t.handler <- Some h

let sink_refs t node = Option.value ~default:0 (Hashtbl.find_opt t.sinks node)

let sink_acquire t node = Hashtbl.replace t.sinks node (sink_refs t node + 1)

let sink_release t node =
  match sink_refs t node with
  | 0 -> ()
  | 1 -> Hashtbl.remove t.sinks node
  | n -> Hashtbl.replace t.sinks node (n - 1)

(* ---- Fault surface ---------------------------------------------------- *)

let set_fault_rng t rng = t.fault_rng <- Some rng

let rng_of t =
  match t.fault_rng with
  | Some r -> r
  | None ->
      (* Deterministic default stream; sessions wanting seed isolation
         call {!set_fault_rng}. *)
      let r = Stats.Rng.create 0 in
      t.fault_rng <- Some r;
      r

let fault_rng t = rng_of t

let set_default_loss t rate =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Network.set_default_loss: bad rate";
  t.default_loss <- rate;
  if rate > 0.0 then t.faults_on <- true

let set_drop_filter t f =
  t.drop_filter <- f;
  if f <> None then t.faults_on <- true

(* ---- Adversarial delivery ---------------------------------------------- *)

let hostile_of t =
  match t.hostile with
  | Some h -> h
  | None ->
      let h =
        {
          h_jitter = 0.0;
          h_reorder_window = 0.0;
          h_reorder_prob = 0.0;
          h_dup_prob = 0.0;
          h_burst_prob = 0.0;
          h_burst_len = 0;
          h_burst_left = Hashtbl.create 8;
        }
      in
      t.hostile <- Some h;
      t.faults_on <- true;
      h

let set_jitter t max_delay =
  if max_delay < 0.0 then invalid_arg "Network.set_jitter: negative jitter";
  (hostile_of t).h_jitter <- max_delay

let set_reorder t ~window ~prob =
  if window < 0.0 then invalid_arg "Network.set_reorder: negative window";
  if prob < 0.0 || prob > 1.0 then invalid_arg "Network.set_reorder: bad prob";
  let h = hostile_of t in
  h.h_reorder_window <- window;
  h.h_reorder_prob <- prob

let set_duplication t prob =
  if prob < 0.0 || prob > 1.0 then
    invalid_arg "Network.set_duplication: bad prob";
  (hostile_of t).h_dup_prob <- prob

let set_burst_loss t ~prob ~len =
  if prob < 0.0 || prob > 1.0 then
    invalid_arg "Network.set_burst_loss: bad prob";
  if len < 0 then invalid_arg "Network.set_burst_loss: negative length";
  let h = hostile_of t in
  h.h_burst_prob <- prob;
  h.h_burst_len <- len;
  if prob = 0.0 then Hashtbl.reset h.h_burst_left

let hostile_active t =
  match t.hostile with Some _ -> true | None -> false

let set_link_up t u v b =
  Routing.Table.set_link_up t.table u v b;
  if not b then t.faults_on <- true

let node_up t n = not t.down_nodes.(n)

let on_node_event t f = t.node_listeners <- t.node_listeners @ [ f ]
let on_route_change t f = t.route_listeners <- t.route_listeners @ [ f ]
let on_delivery t f = t.delivery_listeners <- t.delivery_listeners @ [ f ]

let set_node_up t n b =
  if t.down_nodes.(n) = b then begin
    t.down_nodes.(n) <- not b;
    if not b then t.faults_on <- true;
    if Obs.Trace.active t.trace then
      Obs.Trace.event t.trace ~time:(now t) ~node:n
        (if b then Obs.Event.Node_restart else Obs.Event.Node_crash);
    List.iter (fun f -> f ~up:b n) t.node_listeners
  end

let reconverge t =
  let changed = Routing.Table.reconverge t.table in
  Obs.Metrics.incr t.m.reconverges;
  if Obs.Trace.active t.trace then
    Obs.Trace.event t.trace ~time:(now t) ~node:(-1)
      (Obs.Event.Route_reconverge { changed });
  List.iter (fun f -> f ~changed) t.route_listeners;
  changed

let reason_label = function
  | Loss -> "loss"
  | Link_failed -> "link-down"
  | Node_failed -> "node-down"
  | Filtered -> "filtered"

let fault_drop t ~at ~next reason (p : 'p Packet.t) =
  (match reason with
  | Loss -> t.c.dropped_loss <- t.c.dropped_loss + 1
  | Link_failed -> t.c.dropped_link_down <- t.c.dropped_link_down + 1
  | Node_failed -> t.c.dropped_node_down <- t.c.dropped_node_down + 1
  | Filtered -> t.c.dropped_filtered <- t.c.dropped_filtered + 1);
  Obs.Metrics.incr t.m.dropped;
  Obs.Metrics.incr t.m.dropped_fault;
  (* Bernoulli losses track traffic volume; keep them off the ring
     unless verbose.  Structural drops (dead link/node) are rare and
     are exactly what a fault investigation wants to see. *)
  if
    Obs.Trace.active t.trace
    && (reason <> Loss || Obs.Trace.verbose t.trace)
  then
    Obs.Trace.event t.trace ~time:(now t) ~node:at
      (Obs.Event.Packet_lost
         {
           next;
           dst = p.dst;
           data = p.kind = Packet.Data;
           reason = reason_label reason;
         })

(* [dlink] is the directed link id of [u -> v] (see [data_loads]). *)
let directed_link (l : Topology.Graph.link) u =
  if l.u = u then 2 * l.id else (2 * l.id) + 1

let tally_link t (p : 'p Packet.t) u v dlink =
  (match p.kind with
  | Packet.Data ->
      t.data_loads.(dlink) <- t.data_loads.(dlink) + 1;
      t.c.data_hops <- t.c.data_hops + 1;
      Obs.Metrics.incr t.m.pkt_copies
  | Packet.Control ->
      t.c.control_hops <- t.c.control_hops + 1;
      Obs.Metrics.incr t.m.ctl_hops);
  (* Per-hop events are high-volume: only under a verbose trace. *)
  if Obs.Trace.active t.trace && Obs.Trace.verbose t.trace then
    Obs.Trace.event t.trace ~time:(now t) ~node:u
      (Obs.Event.Packet_forward
         { next = v; dst = p.dst; data = p.kind = Packet.Data })

let record_delivery t node delay =
  let cap = Array.length t.dl_nodes in
  if t.dl_len = cap then begin
    let ncap = max 64 (2 * cap) in
    let nodes = Array.make ncap 0 in
    let delays = Array.make ncap 0.0 in
    Array.blit t.dl_nodes 0 nodes 0 cap;
    Array.blit t.dl_delays 0 delays 0 cap;
    t.dl_nodes <- nodes;
    t.dl_delays <- delays
  end;
  t.dl_nodes.(t.dl_len) <- node;
  t.dl_delays.(t.dl_len) <- delay;
  t.dl_len <- t.dl_len + 1

(* The queued closure writes back [p]'s mutable fields as they were at
   scheduling, so an engine restore, which resurrects the closures,
   rewinds every in-flight packet.  A packet sits in at most one queued
   hop: [emit] gets a fresh rewrite, a hostile copy is a [Packet.dup]. *)
let rec hop t ~time ~next (p : 'p Packet.t) =
  let ttl = p.ttl and via = p.via in
  ignore
    (Eventsim.Engine.schedule_at ~tag:"net.hop" t.engine ~time (fun () ->
         p.ttl <- ttl;
         p.via <- via;
         arrive t next p))

(* Arrival of [p] at [node]; may consume, deliver or forward. *)
and arrive t node (p : 'p Packet.t) =
  if t.faults_on && not (node_up t node) then
    (* A crashed node neither delivers, consumes nor forwards. *)
    fault_drop t ~at:node ~next:node Node_failed p
  else begin
    (* Data reaching the host it is addressed to is a delivery, whether
       or not an application handler also looks at it. *)
    if
      p.kind = Packet.Data && p.dst = node
      && (Topology.Graph.is_host t.graph node || Hashtbl.mem t.sinks node)
    then begin
      let delay = now t -. p.born in
      record_delivery t node delay;
      t.c.deliveries <- t.c.deliveries + 1;
      Obs.Metrics.incr t.m.delivered;
      Obs.Histo.observe t.m.delivery_delay delay;
      List.iter
        (fun f -> f ~now:(now t) ~node p)
        t.delivery_listeners
    end;
    let verdict = match t.handler with Some h -> h t node p | None -> Forward in
    match verdict with
    | Consume -> t.c.consumed <- t.c.consumed + 1
    | Forward ->
        if p.dst = node then t.c.sunk_at_dst <- t.c.sunk_at_dst + 1
        else if p.ttl <= 0 then begin
          Obs.Trace.notef t.trace ~time:(now t) ~node "TTL expired (%d->%d)"
            p.src p.dst;
          t.c.dropped_ttl <- t.c.dropped_ttl + 1;
          Obs.Metrics.incr t.m.dropped
        end
        else begin
          p.ttl <- p.ttl - 1;
          transmit t node p
        end
  end

(* The next hop is read straight from the destination's in-tree
   ([-1]: unreachable, or [node] is the destination), and one adjacency
   walk yields the link for its delay and directed id: a hop allocates
   nothing here beyond its scheduled event. *)
and transmit t node (p : 'p Packet.t) =
  if t.faults_on && not (node_up t node) then
    fault_drop t ~at:node ~next:node Node_failed p
  else
    let next =
      Routing.Dijkstra.next (Routing.Table.in_tree t.table p.dst) node
    in
    if next < 0 then begin
      Obs.Trace.notef t.trace ~time:(now t) ~node "no route to %d" p.dst;
      t.c.dropped_unreachable <- t.c.dropped_unreachable + 1;
      Obs.Metrics.incr t.m.dropped
    end
    else
      let g = t.graph in
      let l = Topology.Graph.link g (Topology.Graph.link_id g node next) in
      let dlink = directed_link l node in
      if t.faults_on && faulted_out t node next dlink p then ()
      else begin
        p.Packet.via <- node;
        tally_link t p node next dlink;
        (* A link's delay is its cost.  The arrival time is the one
           float a hop boxes. *)
        let delay = if l.u = node then l.cost_uv else l.cost_vu in
        match t.hostile with
        | None -> hop t ~time:(now t +. float_of_int delay) ~next p
        | Some h ->
            hostile_hop t h ~delay:(float_of_int delay) ~next dlink node p
      end

(* One adversarial link traversal: the scheduled delay picks up
   jitter and an optional reorder hold-back, and the packet may be
   duplicated in flight (the copy drawing its own delay, so it can
   overtake the original).  Every draw comes from the fault RNG:
   a hostile run is a pure function of the seed. *)
and hostile_delay t (h : hostile) base =
  let d = ref base in
  if h.h_jitter > 0.0 then d := !d +. Stats.Rng.float (rng_of t) h.h_jitter;
  if
    h.h_reorder_prob > 0.0
    && Stats.Rng.float (rng_of t) 1.0 < h.h_reorder_prob
  then d := !d +. Stats.Rng.float (rng_of t) h.h_reorder_window;
  !d

and hostile_hop t h ~delay ~next dlink node (p : 'p Packet.t) =
  hop t ~time:(now t +. hostile_delay t h delay) ~next p;
  if h.h_dup_prob > 0.0 && Stats.Rng.float (rng_of t) 1.0 < h.h_dup_prob
  then begin
    let c = Packet.dup p in
    tally_link t c node next dlink;
    hop t ~time:(now t +. hostile_delay t h delay) ~next c
  end

(* Decide whether the [node -> next] traversal is killed by an
   injected fault; performs the drop accounting itself when so.
   Order: filters (message-class suppression, never on the wire),
   dead link (nothing transmits), then Bernoulli loss — the copy was
   transmitted, so it {e does} consume the link, then vanishes. *)
and faulted_out t node next dlink (p : 'p Packet.t) =
  match t.drop_filter with
  | Some f when f p ->
      fault_drop t ~at:node ~next Filtered p;
      true
  | _ ->
      if not (Topology.Graph.link_up t.graph node next) then begin
        fault_drop t ~at:node ~next Link_failed p;
        true
      end
      else if
        burst_kills t node next
        || t.default_loss > 0.0
           && Stats.Rng.float (rng_of t) 1.0 < t.default_loss
      then begin
        (* A burst (correlated outage) or a Bernoulli loss: either way
           the copy consumed the link, then vanished. *)
        p.Packet.via <- node;
        tally_link t p node next dlink;
        fault_drop t ~at:node ~next Loss p;
        true
      end
      else false

(* Gilbert-Elliott-lite: while a burst is open on the directed link
   every traversal is eaten; otherwise each traversal may open a new
   burst of [h_burst_len] further drops. *)
and burst_kills t node next =
  match t.hostile with
  | Some h when h.h_burst_prob > 0.0 ->
      let k = (node, next) in
      (match Hashtbl.find_opt h.h_burst_left k with
      | Some n when n > 0 ->
          Hashtbl.replace h.h_burst_left k (n - 1);
          true
      | _ ->
          if Stats.Rng.float (rng_of t) 1.0 < h.h_burst_prob then begin
            if h.h_burst_len > 1 then
              Hashtbl.replace h.h_burst_left k (h.h_burst_len - 1);
            true
          end
          else false)
  | _ -> false

let originate t ~src ~dst ~kind payload =
  let p =
    Packet.make ~src ~dst ~kind ~born:(now t) ~ttl:t.default_ttl payload
  in
  (match kind with
  | Packet.Data -> t.c.originated_data <- t.c.originated_data + 1
  | Packet.Control ->
      t.c.originated_control <- t.c.originated_control + 1);
  if dst = src then hop t ~time:(now t) ~next:src p else transmit t src p

let emit t ~at (p : 'p Packet.t) =
  (match p.kind with
  | Packet.Data -> t.c.originated_data <- t.c.originated_data + 1
  | Packet.Control ->
      t.c.originated_control <- t.c.originated_control + 1);
  (* [emit] is how branching routers inject rewritten copies — the
     duplication event of the recursive-unicast data plane. *)
  if Obs.Trace.active t.trace && Obs.Trace.verbose t.trace then
    Obs.Trace.event t.trace ~time:(now t) ~node:at
      (Obs.Event.Packet_duplicate { dst = p.dst; data = p.kind = Packet.Data });
  if p.dst = at then hop t ~time:(now t) ~next:at p else transmit t at p

let counters t = copy_counters t.c

let data_link_loads t =
  let acc = ref [] in
  Array.iteri
    (fun d n ->
      if n > 0 then begin
        let l = Topology.Graph.link t.graph (d / 2) in
        let uv = if d land 1 = 0 then (l.u, l.v) else (l.v, l.u) in
        acc := (uv, n) :: !acc
      end)
    t.data_loads;
  List.sort compare !acc

let data_deliveries t =
  List.init t.dl_len (fun i -> (t.dl_nodes.(i), t.dl_delays.(i)))

let reset_data_accounting t =
  Array.fill t.data_loads 0 (Array.length t.data_loads) 0;
  t.dl_len <- 0

(* ---- Checkpoint / restore --------------------------------------------- *)

type 'p snapshot = {
  s_engine : Eventsim.Engine.snapshot;
  s_links : Topology.Graph.link_state;
  s_counters : counters;
  s_sinks : (int, int) Hashtbl.t;
  s_data_loads : int array;
  s_dl_nodes : int array;
  s_dl_delays : float array;
  s_faults_on : bool;
  s_default_loss : float;
  s_down_nodes : bool array;
  s_trees : Routing.Table.saved;
  s_fault_rng : Stats.Rng.t option;
  s_drop_filter : ('p Packet.t -> bool) option;
  s_hostile : hostile option;
  s_node_listeners : (up:bool -> int -> unit) list;
  s_route_listeners : (changed:int -> unit) list;
  s_delivery_listeners : (now:float -> node:int -> 'p Packet.t -> unit) list;
}

let copy_hostile h =
  {
    h with
    h_burst_left = Hashtbl.copy h.h_burst_left;
  }

let snapshot t =
  (* First, so a checkpoint inside the routing detection-lag window
     raises before anything is copied. *)
  let s_trees = Routing.Table.save t.table in
  {
    s_engine = Eventsim.Engine.snapshot t.engine;
    s_links = Topology.Graph.save_links t.graph;
    s_counters = copy_counters t.c;
    s_sinks = Hashtbl.copy t.sinks;
    s_data_loads = Array.copy t.data_loads;
    s_dl_nodes = Array.sub t.dl_nodes 0 t.dl_len;
    s_dl_delays = Array.sub t.dl_delays 0 t.dl_len;
    s_faults_on = t.faults_on;
    s_default_loss = t.default_loss;
    s_down_nodes = Array.copy t.down_nodes;
    s_trees;
    s_fault_rng = Option.map Stats.Rng.copy t.fault_rng;
    s_drop_filter = t.drop_filter;
    s_hostile = Option.map copy_hostile t.hostile;
    s_node_listeners = t.node_listeners;
    s_route_listeners = t.route_listeners;
    s_delivery_listeners = t.delivery_listeners;
  }

let restore_tbl dst src =
  Hashtbl.reset dst;
  Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src

let restore t s =
  Eventsim.Engine.restore t.engine s.s_engine;
  let generation = Topology.Graph.generation t.graph in
  Topology.Graph.restore_links t.graph s.s_links;
  t.c <- copy_counters s.s_counters;
  restore_tbl t.sinks s.s_sinks;
  Array.blit s.s_data_loads 0 t.data_loads 0 (Array.length t.data_loads);
  (* Copies, so post-restore deliveries never scribble on the
     snapshot's arrays (one snapshot supports repeated restores). *)
  t.dl_nodes <- Array.copy s.s_dl_nodes;
  t.dl_delays <- Array.copy s.s_dl_delays;
  t.dl_len <- Array.length s.s_dl_nodes;
  t.faults_on <- s.s_faults_on;
  t.default_loss <- s.s_default_loss;
  Array.blit s.s_down_nodes 0 t.down_nodes 0 t.n_nodes;
  (* Copy in this direction too, so one snapshot supports repeated
     restores with identical draws each time. *)
  t.fault_rng <- Option.map Stats.Rng.copy s.s_fault_rng;
  t.drop_filter <- s.s_drop_filter;
  (* Same double-copy as the RNG: the snapshot's hostile state must
     survive repeated restores unmutated. *)
  t.hostile <- Option.map copy_hostile s.s_hostile;
  t.node_listeners <- s.s_node_listeners;
  t.route_listeners <- s.s_route_listeners;
  t.delivery_listeners <- s.s_delivery_listeners;
  (* The snapshot was taken at a routing-converged point (enforced
     by {!Routing.Table.save}), so its cached in-trees are the SPF of
     its link state.  If the links had to be rewritten, those trees
     come back, any built against post-snapshot topology go, and so
     does any link change awaiting {!reconverge}.  If not, the
     generation never moved, so no link changed since the snapshot and
     none is pending: every cached in-tree was built from the
     snapshot's own link state (a pure function of it), so the cache
     stays, with whatever it gained since. *)
  if Topology.Graph.generation t.graph <> generation then
    Routing.Table.reinstate t.table s.s_trees
