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

(* A link's facts besides its endpoints' liveness ({!Net.node_up}): the
   explicitly failed links (ascending, [u < v]) and the open named
   partitions' cuts.  Immutable, so a checkpoint is just the value. *)
type facts = {
  failed : (int * int) list;
  cuts : (string * (int * int) list) list;
}

type 'p t = {
  net : 'p Net.t;
  graph : G.t;
  mutable facts : facts;
  (* The membership hooks: how Join/Leave directives reach the protocol
     session (the injector is protocol-agnostic). *)
  mutable subscribe : (int -> unit) option;
  mutable unsubscribe : (int -> unit) option;
}

let create net =
  {
    net;
    graph = Net.graph net;
    facts = { failed = []; cuts = [] };
    subscribe = None;
    unsubscribe = None;
  }

let set_membership t ~subscribe ~unsubscribe =
  t.subscribe <- Some subscribe;
  t.unsubscribe <- Some unsubscribe

let failed_links t = t.facts.failed
let canon u v = if u <= v then (u, v) else (v, u)

let trace_link t ~up u v =
  let trace = Net.trace t.net in
  if Obs.Trace.active trace then
    Obs.Trace.event trace ~time:(Net.now t.net) ~node:u
      (if up then Obs.Event.Link_up { u; v } else Obs.Event.Link_down { u; v })

(* A link is up iff it is not failed, in no open cut, and both of its
   endpoints are up; the graph's flag moves only where that changed. *)
let sync t (u, v) =
  let k = canon u v in
  let is_k (a, b) = canon a b = k in
  let { failed; cuts } = t.facts in
  let up =
    (not (List.mem k failed))
    && (not (List.exists (fun (_, cut) -> List.exists is_k cut) cuts))
    && Net.node_up t.net u && Net.node_up t.net v
  in
  if G.link_up t.graph u v <> up then begin
    Net.set_link_up t.net u v up;
    Obs.Metrics.hot_incr (if up then m_link_ups else m_link_downs);
    trace_link t ~up u v
  end

(* Crash and restart flip the network's liveness fact, link failures
   the injector's own; each re-derives the links it touches. *)
let set_node t n ~up counter =
  if Net.node_up t.net n <> up then begin
    Obs.Metrics.hot_incr counter;
    Net.set_node_up t.net n up;
    List.iter (fun w -> sync t (n, w)) (G.neighbors t.graph n)
  end

let set_failed t u v b =
  let k = canon u v in
  let rest = List.filter (( <> ) k) t.facts.failed in
  let failed = if b then List.sort compare (k :: rest) else rest in
  t.facts <- { t.facts with failed };
  sync t (u, v)

(* Links with exactly one endpoint inside the island: the partition
   cut.  Island lists are tiny, List.mem is fine. *)
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
  | Plan.Link_down { u; v } -> set_failed t u v true
  | Plan.Link_up { u; v } -> set_failed t u v false
  | Plan.Crash { node } -> set_node t node ~up:false m_crashes
  | Plan.Restart { node } -> set_node t node ~up:true m_restarts
  | Plan.Partition_named { name; island } ->
      if not (List.mem_assoc name t.facts.cuts) then begin
        Obs.Metrics.hot_incr m_partitions;
        let cut = cut_links t.graph island in
        t.facts <- { t.facts with cuts = (name, cut) :: t.facts.cuts };
        List.iter (sync t) cut
      end
  | Plan.Heal_named { name } -> (
      match List.assoc_opt name t.facts.cuts with
      | None -> ()
      | Some cut ->
          let cuts = List.remove_assoc name t.facts.cuts in
          t.facts <- { t.facts with cuts };
          List.iter (sync t) cut)
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

(* The link facts are world state that the network snapshot does not
   hold: checkpointing explorers save them alongside it. *)
type snap = facts

let save t = t.facts
let restore t facts = t.facts <- facts

let schedule t plan =
  let engine = Net.engine t.net in
  List.iter
    (fun (d : Plan.directive) ->
      ignore
        (Engine.schedule ~tag:"fault.directive" engine ~delay:d.at (fun () ->
             apply t d.action)))
    (Plan.directives plan)
