module Net = Netsim.Network
module Engine = Eventsim.Engine
module G = Topology.Graph

let m_directives = Obs.Metrics.hot_counter "fault.directives"
let m_link_downs = Obs.Metrics.hot_counter "fault.link_downs"
let m_link_ups = Obs.Metrics.hot_counter "fault.link_ups"
let m_crashes = Obs.Metrics.hot_counter "fault.crashes"
let m_restarts = Obs.Metrics.hot_counter "fault.restarts"
let m_loss_changes = Obs.Metrics.hot_counter "fault.loss_changes"
let m_partitions = Obs.Metrics.hot_counter "fault.partitions"
let m_hostile = Obs.Metrics.hot_counter "fault.hostile_changes"

type 'p t = {
  net : 'p Net.t;
  graph : G.t;
  (* Down-cause refcounts per undirected link: an explicit Link_down
     is one cause, each crashed endpoint is another.  A link is
     operational iff it has no causes, so a restart does not revive a
     link that was also failed explicitly. *)
  causes : (int * int, int) Hashtbl.t;
  crashed : (int, unit) Hashtbl.t;
  (* Named partitions remember the exact links they cut, so the
     matching heal restores precisely those even if the graph's link
     state moved underneath (a crash on the island boundary, say). *)
  partitions : (string, (int * int) list) Hashtbl.t;
  (* Membership hooks: how Join/Leave directives reach the protocol
     session (the injector is protocol-agnostic). *)
  mutable subscribe : (int -> unit) option;
  mutable unsubscribe : (int -> unit) option;
}

let create net =
  {
    net;
    graph = Net.graph net;
    causes = Hashtbl.create 16;
    crashed = Hashtbl.create 8;
    partitions = Hashtbl.create 4;
    subscribe = None;
    unsubscribe = None;
  }

let set_membership t ~subscribe ~unsubscribe =
  t.subscribe <- Some subscribe;
  t.unsubscribe <- Some unsubscribe

let canon u v = if u <= v then (u, v) else (v, u)

let trace_link t ~up u v =
  let trace = Net.trace t.net in
  if Obs.Trace.active trace then
    Obs.Trace.event trace ~time:(Net.now t.net) ~node:u
      (if up then Obs.Event.Link_up { u; v } else Obs.Event.Link_down { u; v })

let add_cause t u v =
  let k = canon u v in
  let c = Option.value ~default:0 (Hashtbl.find_opt t.causes k) in
  Hashtbl.replace t.causes k (c + 1);
  if c = 0 then begin
    Net.set_link_up t.net u v false;
    Obs.Metrics.hot_incr m_link_downs;
    trace_link t ~up:false u v
  end

let remove_cause t u v =
  let k = canon u v in
  match Hashtbl.find_opt t.causes k with
  | None -> ()
  | Some c when c <= 1 ->
      Hashtbl.remove t.causes k;
      Net.set_link_up t.net u v true;
      Obs.Metrics.hot_incr m_link_ups;
      trace_link t ~up:true u v
  | Some c -> Hashtbl.replace t.causes k (c - 1)

(* Links with exactly one endpoint inside the island: the partition
   cut.  Membership lists are tiny, List.mem is fine. *)
let cut_links g island =
  List.filter_map
    (fun (l : G.link) ->
      match (List.mem l.u island, List.mem l.v island) with
      | true, false | false, true -> Some (l.u, l.v)
      | _ -> None)
    (G.links g)

let apply t (action : Plan.action) =
  Obs.Metrics.hot_incr m_directives;
  match action with
  | Plan.Loss_all { rate } ->
      Obs.Metrics.hot_incr m_loss_changes;
      Net.set_default_loss t.net rate
  | Plan.Link_down { u; v } -> add_cause t u v
  | Plan.Link_up { u; v } -> remove_cause t u v
  | Plan.Crash { node } ->
      if not (Hashtbl.mem t.crashed node) then begin
        Hashtbl.replace t.crashed node ();
        Obs.Metrics.hot_incr m_crashes;
        Net.set_node_up t.net node false;
        List.iter (fun w -> add_cause t node w) (G.neighbors t.graph node)
      end
  | Plan.Restart { node } ->
      if Hashtbl.mem t.crashed node then begin
        Hashtbl.remove t.crashed node;
        Obs.Metrics.hot_incr m_restarts;
        List.iter (fun w -> remove_cause t node w) (G.neighbors t.graph node);
        Net.set_node_up t.net node true
      end
  | Plan.Partition_named { name; island } ->
      if not (Hashtbl.mem t.partitions name) then begin
        Obs.Metrics.hot_incr m_partitions;
        let cut = cut_links t.graph island in
        Hashtbl.replace t.partitions name cut;
        List.iter (fun (u, v) -> add_cause t u v) cut
      end
  | Plan.Heal_named { name } -> (
      match Hashtbl.find_opt t.partitions name with
      | None -> ()
      | Some cut ->
          Hashtbl.remove t.partitions name;
          List.iter (fun (u, v) -> remove_cause t u v) cut)
  | Plan.Jitter { max_delay } ->
      Obs.Metrics.hot_incr m_hostile;
      Net.set_jitter t.net max_delay
  | Plan.Reorder { window; prob } ->
      Obs.Metrics.hot_incr m_hostile;
      Net.set_reorder t.net ~window ~prob
  | Plan.Duplicate { prob } ->
      Obs.Metrics.hot_incr m_hostile;
      Net.set_duplication t.net prob
  | Plan.Burst_loss { prob; len } ->
      Obs.Metrics.hot_incr m_hostile;
      Net.set_burst_loss t.net ~prob ~len
  | Plan.Drop_control { prob } ->
      Obs.Metrics.hot_incr m_hostile;
      if prob <= 0.0 then Net.set_drop_filter t.net None
      else begin
        let net = t.net in
        Net.set_drop_filter net
          (Some
             (fun (p : _ Netsim.Packet.t) ->
               p.Netsim.Packet.kind = Netsim.Packet.Control
               && (prob >= 1.0
                  || Stats.Rng.float (Net.fault_rng net) 1.0 < prob)))
      end
  | Plan.Reconverge -> ignore (Net.reconverge t.net)
  | Plan.Join { member } -> (
      match t.subscribe with
      | Some f -> f member
      | None ->
          invalid_arg "Fault.Injector: Join directive without membership hooks")
  | Plan.Leave { member } -> (
      match t.unsubscribe with
      | Some f -> f member
      | None ->
          invalid_arg "Fault.Injector: Leave directive without membership hooks")

(* The cause refcounts and crashed set are part of the world state:
   checkpointing explorers must save them alongside the network, or a
   restored branch sees stale causes and re-applied crash/link
   directives silently no-op. *)
type snap = {
  s_causes : (int * int, int) Hashtbl.t;
  s_crashed : (int, unit) Hashtbl.t;
  s_partitions : (string, (int * int) list) Hashtbl.t;
}

let save t =
  {
    s_causes = Hashtbl.copy t.causes;
    s_crashed = Hashtbl.copy t.crashed;
    s_partitions = Hashtbl.copy t.partitions;
  }

let restore t s =
  Hashtbl.reset t.causes;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.causes k v) s.s_causes;
  Hashtbl.reset t.crashed;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.crashed k v) s.s_crashed;
  Hashtbl.reset t.partitions;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.partitions k v) s.s_partitions

let schedule t plan =
  let engine = Net.engine t.net in
  List.iter
    (fun (d : Plan.directive) ->
      ignore
        (Engine.schedule ~tag:"fault.directive" engine ~delay:d.at (fun () ->
             apply t d.action)))
    (Plan.directives plan)
