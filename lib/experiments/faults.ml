(* The fault-recovery experiment: every registered protocol instance
   under an identical fault plan, measuring time-to-repair, deliveries
   lost, duplicates and control-overhead inflation.  Everything is
   deterministic in (topology seed, fault seed): two invocations with
   the same seeds produce bit-identical reports. *)

module G = Topology.Graph
module Engine = Eventsim.Engine
module Wheel = Eventsim.Wheel
module Net = Netsim.Network

type scenario = Crash | Link_failure | Loss_burst

let all_scenarios = [ Crash; Link_failure; Loss_burst ]

let scenario_name = function
  | Crash -> "crash"
  | Link_failure -> "link-down"
  | Loss_burst -> "loss-burst"

(* ---- Fault-target selection (topology-only, protocol-neutral) ---- *)

(* The key of [keys] with the largest [rank key count], [count] being
   how often it occurs; distinct keys rank distinctly, so the table's
   iteration order does not matter. *)
let busiest ~what rank keys =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun k ->
      Hashtbl.replace counts k
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    keys;
  match
    Hashtbl.fold
      (fun k c best ->
        match best with
        | Some (bk, bc) when rank bk bc >= rank k c -> best
        | _ -> Some (k, c))
      counts None
  with
  | Some (k, _) -> k
  | None -> invalid_arg what

(* The transit router crossed by the most receivers' unicast paths
   from the source — "mid-tree".  The source's own attachment router
   is avoided when any alternative exists (crashing it disconnects
   everything, which measures the restart timer rather than the
   protocol).  Ties break to the smallest id. *)
let pick_crash_router table ~source ~receivers =
  let g = Routing.Table.graph table in
  let src_router =
    if G.is_host g source then G.router_of_host g source else source
  in
  let interior r =
    let p = Routing.Table.path table source r in
    let last = List.length p - 1 in
    List.filteri (fun i n -> i > 0 && i < last && G.is_router g n) p
  in
  busiest ~what:"Faults.pick_crash_router: no transit router"
    (fun n c -> (n <> src_router, c, -n))
    (List.concat_map interior receivers)

(* The router-router link carrying the most receivers' paths; failing
   it forces reconvergence onto an alternate route (host access links
   are excluded — they have no alternative). *)
let pick_tree_link table ~source ~receivers =
  let g = Routing.Table.graph table in
  let rec links = function
    | a :: (b :: _ as rest) ->
        if G.is_router g a && G.is_router g b then
          (min a b, max a b) :: links rest
        else links rest
    | _ -> []
  in
  busiest ~what:"Faults.pick_tree_link: no router-router tree link"
    (fun (u, v) c -> (c, (-u, -v)))
    (List.concat_map
       (fun r -> links (Routing.Table.path table source r))
       receivers)

module Sut = Verif.Sut

(* ---- Sessions and timings ---------------------------------------- *)

(* Every protocol is measured against the same 2*t2 repair budget,
   HBH's t2: PIM-SSM's slowest deadline is its oif holdtime and
   hard-state HPIM-DM has no t2 at all, so one budget keeps the table
   comparable. *)
let t2 = 550.0

(* A fresh session on a private copy of the graph. *)
let session proto graph ~source =
  Sut.make proto (Routing.Table.compute (G.copy graph)) ~source

let fault_at = 300.0 (* pre-fault window: three control periods *)
let repair_at = fault_at +. 400.0 (* restart / restore instant *)
let probe_period = 50.0
let delivery_slack = 300.0

(* Events one case may fire between convergence and its horizon.  Over
   seeds 0..1000 the largest HBH, PIM-SSM or HPIM-DM case fires 17,382
   events and the largest at seed 42 fires 15,042, so the budget is a
   57x margin over any healthy case.  Only REUNITE's runaway
   duplication (an open defect) reaches it: its cases are heavy-tailed
   (median 3.6k, 99.9th percentile 679k events), and a runaway grows
   the event heap without bound, so without the budget the case never
   ends. *)
let event_budget = 1_000_000

let plan_of scenario ~crash_node ~link =
  let u, v = link in
  let outage down up =
    [
      (fault_at, down);
      (fault_at +. Fault.Plan.detection_lag, Fault.Plan.Reconverge);
      (repair_at, up);
      (repair_at +. Fault.Plan.detection_lag, Fault.Plan.Reconverge);
    ]
  in
  Fault.Plan.make
    (match scenario with
    | Crash ->
        outage (Fault.Plan.Crash { node = crash_node })
          (Fault.Plan.Restart { node = crash_node })
    | Link_failure ->
        outage (Fault.Plan.Link_down { u; v }) (Fault.Plan.Link_up { u; v })
    | Loss_burst ->
        [
          (fault_at, Fault.Plan.Loss_all { rate = 0.3 });
          (repair_at, Fault.Plan.Loss_all { rate = 0.0 });
        ])

type outcome = {
  topology : string;
  scenario : scenario;
  proto : Sut.protocol;
  target : string;  (* crashed router or failed link *)
  budget : float;  (* the 2*t2 repair budget *)
  report : Fault.Recovery.report;
  fault_drops : int;  (* loss + link-down + node-down drops *)
  runaway : bool;  (* stopped at [event_budget] before its horizon *)
}

(* What to observe while a case runs; [stream] keeps it read-only. *)
type instrument = {
  i_timeline : float option;  (* sampling interval *)
  i_monitor : bool;
}

type case_obs = {
  c_label : string;  (* "<topology>/<scenario>/<protocol>" *)
  c_timeline : Obs.Timeline.t option;
  c_monitor : Verif.Monitor.t option;
  c_repair : Obs.Span.stats;  (* over the receivers' time_to_repair *)
}

(* ---- The probe stream -------------------------------------------- *)

(* Every run of [faults], [soak] and join latency is one [stream]. *)
type stream = {
  recovery : Fault.Recovery.t;
      (* every probe sent, every copy delivered, the control samples *)
  report : Fault.Recovery.report;  (* read at the horizon *)
  timeline : Obs.Timeline.t option;
  drops : int;  (* loss + link-down + node-down drops during the run *)
  stopped : bool;
      (* fired [max_events] events besides the timeline's and the
         monitor's before the horizon *)
}

(* Probing stops [delivery_slack] before [horizon] so the lost count
   is not polluted by copies still in flight.  The timeline sampler
   and [monitor] read state and schedule only their own timer events,
   and [max_events] counts every event but theirs, so observing a run
   does not change it. *)
let stream ?max_events ?timeline ?monitor ?fault_at ?heal_at ?plan
    ?(probe_start = probe_period) ~seed ~horizon ~receivers sut =
  let engine = sut.Sut.engine in
  let recov = Fault.Recovery.create ~receivers in
  sut.Sut.on_delivery (fun ~now ~receiver ~seq ->
      Fault.Recovery.note_delivery recov ~now ~receiver ~seq);
  let t0 = Engine.now engine in
  let note_control () =
    Fault.Recovery.note_control recov ~now:(Engine.now engine)
      ~hops:(sut.Sut.control_hops ())
  in
  (* Each sampler fire is one engine event of the timeline's own wheel. *)
  let samples = ref 0 in
  let timeline =
    Option.map
      (fun (interval, probes) ->
        let tl = Obs.Timeline.create ~interval () in
        List.iter
          (fun (name, f) -> Obs.Timeline.add_probe tl name (fun () -> f recov))
          probes;
        ignore
          (Wheel.every
             (Wheel.create ~tag:"obs.timeline" engine)
             ~start:0.0 ~period:interval
             (fun () ->
               incr samples;
               let nw = Engine.now engine in
               if nw -. t0 <= horizon then
                 Obs.Timeline.sample tl ~now:(nw -. t0)));
        tl)
      timeline
  in
  note_control ();
  let probe_until = horizon -. delivery_slack in
  ignore
    (Wheel.every
       (Wheel.create ~tag:"fault.probe" engine)
       ~start:probe_start ~period:probe_period
       (fun () ->
         let nw = Engine.now engine in
         if nw -. t0 <= probe_until then begin
           let seq = sut.Sut.send_probe () in
           if seq > 0 then Fault.Recovery.note_send recov ~now:nw ~seq
         end));
  List.iter
    (fun delay ->
      ignore (Engine.schedule ~tag:"fault.sample" engine ~delay note_control))
    (List.filter_map Fun.id [ fault_at; heal_at ]);
  Option.iter (sut.Sut.install_plan ~seed) plan;
  Option.iter (fun at -> Fault.Recovery.note_fault recov ~now:(t0 +. at)) fault_at;
  Option.iter (fun at -> Fault.Recovery.note_heal recov ~now:(t0 +. at)) heal_at;
  let before = sut.Sut.counters () in
  let checks () = Option.fold ~none:0 ~some:Verif.Monitor.checks monitor in
  let e0 = Engine.events_fired engine and c0 = checks () in
  (* The case's own events so far: every fire but the sampler's and
     the monitor's (one engine event per check). *)
  let fired () =
    Engine.events_fired engine - e0 - !samples - (checks () - c0)
  in
  (* Run in slices of the budget left: a slice that fires all it may
     has spent part of it on instrumentation, so the next slice takes
     that part back.  Slicing does not reorder the queue.  True once
     the case has fired the whole budget. *)
  let until = t0 +. horizon in
  let rec spend m =
    let left = m - fired () in
    left <= 0
    ||
    let f0 = Engine.events_fired engine in
    Engine.run ~until ~max_events:left engine;
    Engine.events_fired engine - f0 = left && spend m
  in
  let stopped =
    match max_events with
    | Some m -> spend m
    | None ->
        Engine.run ~until engine;
        false
  in
  note_control ();
  Option.iter Verif.Monitor.stop monitor;
  let after = sut.Sut.counters () in
  {
    recovery = recov;
    report = Fault.Recovery.report recov;
    timeline;
    drops =
      after.Net.dropped_loss - before.Net.dropped_loss
      + after.Net.dropped_link_down - before.Net.dropped_link_down
      + after.Net.dropped_node_down - before.Net.dropped_node_down;
    stopped;
  }

(* ---- One fault case ----------------------------------------------- *)

let case_label ~topology ~scenario ~proto =
  Printf.sprintf "%s/%s/%s" topology (scenario_name scenario) (Sut.label proto)

let run_one ?instrument proto ~topology ~graph ~source ~receivers ~scenario
    ~crash_node ~link ~seed =
  let sut = session proto graph ~source in
  List.iter sut.Sut.subscribe receivers;
  sut.Sut.converge ();
  let i =
    Option.value instrument ~default:{ i_timeline = None; i_monitor = false }
  in
  let timeline =
    Option.map
      (fun interval ->
        ( interval,
          [
            ("repaired", fun r -> float_of_int (Fault.Recovery.repaired_count r));
            ("deliveries", fun r -> float_of_int (Fault.Recovery.delivery_count r));
            ("control_hops", fun _ -> float_of_int (sut.Sut.control_hops ()));
          ] ))
      i.i_timeline
  in
  let monitor = if i.i_monitor then Some (Verif.Monitor.attach sut) else None in
  let st =
    stream ?timeline ?monitor ~fault_at ~probe_start:0.0
      ~plan:(plan_of scenario ~crash_node ~link)
      ~max_events:event_budget ~seed
      ~horizon:(fault_at +. (2.0 *. t2) +. delivery_slack)
      ~receivers sut
  in
  (* Per-protocol time-to-repair distribution, always on: the labeled
     family aggregates across topologies and scenarios. *)
  let h_ttr =
    Obs.Metrics.histogram_l (Obs.Metrics.default ()) "span.time_to_repair"
      (Obs.Labels.v [ ("protocol", Sut.name proto) ])
  in
  List.iter
    (fun (o : Fault.Recovery.receiver_outcome) ->
      Option.iter (Obs.Histo.observe h_ttr) o.Fault.Recovery.time_to_repair)
    st.report.Fault.Recovery.outcomes;
  let target =
    match scenario with
    | Crash -> Printf.sprintf "router %d" crash_node
    | Link_failure ->
        let u, v = link in
        Printf.sprintf "link %d-%d" u v
    | Loss_burst -> "30% loss everywhere"
  in
  ( {
      topology;
      scenario;
      proto;
      target;
      budget = 2.0 *. t2;
      report = st.report;
      fault_drops = st.drops;
      runaway = st.stopped;
    },
    Option.map
      (fun _ ->
        {
          c_label = case_label ~topology ~scenario ~proto;
          c_timeline = st.timeline;
          c_monitor = monitor;
          c_repair =
            Obs.Span.stats_of
              (List.filter_map
                 (fun (o : Fault.Recovery.receiver_outcome) ->
                   o.Fault.Recovery.time_to_repair)
                 st.report.Fault.Recovery.outcomes);
        })
      instrument )

(* ---- The experiment ---------------------------------------------- *)

let metric_prefix o =
  Printf.sprintf "fault.exp.%s.%s.%s"
    (match o.topology with "ISP topology" -> "isp" | _ -> "rand50")
    (scenario_name o.scenario)
    (Sut.name o.proto)

let run_config ?instrument ?(scenarios = all_scenarios)
    ?(protocols = Sut.all) ?(jobs = 1) ~seed ~n (config : Common.config) =
  let rng = Stats.Rng.create seed in
  let s =
    Workload.Scenario.make rng config.Common.graph ~source:config.Common.source
      ~candidates:config.Common.candidates ~n
  in
  let receivers = List.sort compare s.Workload.Scenario.receivers in
  let crash_node =
    pick_crash_router s.Workload.Scenario.table ~source:s.Workload.Scenario.source
      ~receivers
  in
  let link =
    pick_tree_link s.Workload.Scenario.table ~source:s.Workload.Scenario.source
      ~receivers
  in
  (* Each (scenario, protocol) case already runs on its own graph copy
     and engine, and the scenario draw above is shared state computed
     before the fan-out — so cases shard cleanly across domains.  Each
     case runs in an isolated registry merged back in case order
     ({!Sweep.map_merged}); the recovery export happens afterwards on
     the calling domain, also in case order, exactly where a
     sequential run would have left it. *)
  let cases =
    Array.of_list
      (List.concat_map
         (fun scenario -> List.map (fun proto -> (scenario, proto)) protocols)
         scenarios)
  in
  let pairs =
    Sweep.map_merged ~jobs (Array.length cases) (fun i ->
        let scenario, proto = cases.(i) in
        run_one ?instrument proto ~topology:config.Common.label
          ~graph:config.Common.graph ~source:s.Workload.Scenario.source
          ~receivers ~scenario ~crash_node ~link ~seed)
  in
  Array.iter
    (fun (o, _) ->
      Fault.Recovery.export ~prefix:(metric_prefix o)
        (Obs.Metrics.default ())
        o.report)
    pairs;
  Array.to_list pairs

let run_observed ?instrument ?(seed = 42) ?scenarios ?protocols ?jobs () =
  (* Scope the registry to this run: a multi-seed sweep must not
     accumulate the previous invocation's counts. *)
  Obs.Metrics.reset (Obs.Metrics.default ());
  let isp = Common.isp_config () in
  let rand50 = Common.rand50_config ~seed in
  let pairs =
    run_config ?instrument ?scenarios ?protocols ?jobs ~seed ~n:8 isp
    @ run_config ?instrument ?scenarios ?protocols ?jobs ~seed ~n:15 rand50
  in
  (List.map fst pairs, List.filter_map snd pairs)

(* ---- Join latency under a live stream ----------------------------- *)

(* The paper's join-latency question: with the stream already
   flowing, how long from a member's subscribe to its first packet?
   One fresh session per protocol, the tree anchored by one member,
   then the remaining receivers join one at a time — each join opens
   a session span that closes at that member's first delivery. *)

let join_warmup = 400.0 (* anchor member + stream settle before joins *)
let join_stagger = 200.0 (* gap between successive joins *)

type join_latency = {
  jl_topology : string;
  jl_proto : Sut.protocol;
  jl_stats : Obs.Span.stats;
}

let measure_join_latency_config ?(protocols = Sut.all) ~seed ~n
    (config : Common.config) =
  let rng = Stats.Rng.create seed in
  let s =
    Workload.Scenario.make rng config.Common.graph ~source:config.Common.source
      ~candidates:config.Common.candidates ~n
  in
  let receivers = List.sort compare s.Workload.Scenario.receivers in
  List.map
    (fun proto ->
      let sut =
        session proto config.Common.graph ~source:s.Workload.Scenario.source
      in
      (match receivers with
      | first :: rest ->
          sut.Sut.subscribe first;
          List.iteri
            (fun i r ->
              ignore
                (Engine.schedule ~tag:"obs.join" sut.Sut.engine
                   ~delay:(join_warmup +. (float_of_int i *. join_stagger))
                   (fun () -> sut.Sut.subscribe r)))
            rest
      | [] -> ());
      ignore
        (stream ~seed ~receivers sut
           ~horizon:
             (join_warmup
             +. (float_of_int (List.length receivers) *. join_stagger)
             +. (2.0 *. t2)));
      {
        jl_topology = config.Common.label;
        jl_proto = proto;
        jl_stats = Obs.Span.stats ~name:"join" sut.Sut.spans;
      })
    protocols

let measure_join_latency ?(seed = 42) ?protocols () =
  let isp = Common.isp_config () in
  let rand50 = Common.rand50_config ~seed in
  measure_join_latency_config ?protocols ~seed ~n:8 isp
  @ measure_join_latency_config ?protocols ~seed ~n:15 rand50

(* ---- Rendering --------------------------------------------------- *)

let row (o : outcome) =
  let r = o.report in
  let fmt_opt = function None -> "-" | Some v -> Printf.sprintf "%.0f" v in
  [
    o.topology;
    scenario_name o.scenario;
    Sut.label o.proto;
    o.target;
    (if o.runaway then "runaway"
     else if r.Fault.Recovery.recovered then "yes"
     else "NO");
    fmt_opt r.Fault.Recovery.max_time_to_repair;
    Printf.sprintf "%.0f" o.budget;
    string_of_int r.Fault.Recovery.total_lost;
    string_of_int r.Fault.Recovery.total_duplicated;
    string_of_int o.fault_drops;
    (if Float.is_finite r.Fault.Recovery.overhead_inflation then
       Printf.sprintf "%.2f" r.Fault.Recovery.overhead_inflation
     else "-");
  ]

let headers =
  [
    "topology";
    "scenario";
    "protocol";
    "fault";
    "recovered";
    "ttr";
    "budget";
    "lost";
    "dup";
    "drops";
    "ctl-infl";
  ]

let pp_outcomes ppf outcomes =
  Stats.Table.render ppf ~headers (List.map row outcomes)
