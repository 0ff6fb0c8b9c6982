(* The long-horizon soak harness: sustained membership churn plus a
   seeded hostile delivery stream — jitter, bounded reordering,
   duplication, burst loss, a control-plane drop window and one named
   partition/heal cycle — with the runtime invariant monitors armed
   throughout.  Each protocol runs the same script for N simulated
   hours; the run fails on any confirmed monitor violation or on an
   unhealed outage (a stable receiver still silent at the end of the
   probe stream).

   Determinism: everything is derived from [seed] — the receiver
   draw, the churn schedule and every hostile-knob coin flip (the
   injector seeds the network fault RNG) — so two invocations with
   the same seed produce bit-identical output. *)

module Sut = Verif.Sut
module Engine = Eventsim.Engine

let timeline_interval = 100.0

(* The partition must heal before the structural monitors can observe
   the cut [confirm = 3] times in a row (probe period = t2 = 550), so
   the window stays under two probe periods; on short horizons it
   shrinks with the run. *)
let max_partition_window = 800.0
let min_horizon = 2400.0

type result = {
  r_proto : Sut.protocol;
  r_churn_events : int;
  r_probes : int;
  r_deliveries : int;
  r_checks : int;  (** monitor probes run *)
  r_violations : Verif.Monitor.confirmed list;
  r_unhealed : int list;  (** stable receivers silent at the end *)
  r_report : Fault.Recovery.report;
  r_timeline : Obs.Timeline.t;
}

let failed r = r.r_violations <> [] || r.r_unhealed <> []

(* Alternating join/leave instants for one churner, precomputed from
   the seed so the run replays bit for bit.  Dwell and away times are
   a few control periods to a few t2 — enough for state to build and
   then age out — and churn stops 2*t2 before the horizon so the last
   departure's decay cannot straddle the final monitor probes. *)
let churn_events rng ~horizon ~t2 member =
  let stop_at = horizon -. (2.0 *. t2) in
  let rec go acc t joined =
    let gap =
      if joined then 600.0 +. Stats.Rng.float rng 1200.0 (* dwell *)
      else 300.0 +. Stats.Rng.float rng 900.0 (* away *)
    in
    let t = t +. gap in
    if t >= stop_at then List.rev acc
    else go ((t, member, not joined) :: acc) t (not joined)
  in
  go [] 0.0 false

let partition_times ~horizon =
  let p_at = 0.4 *. horizon in
  (p_at, p_at +. Float.min max_partition_window (0.2 *. horizon))

(* The hostile stream.  Base knobs switch on at t=0 and stay on:
   per-hop jitter, bounded reordering, duplication and short
   correlated loss bursts.  A 5% control-plane drop filter covers an
   early window, and one named partition/heal cycle (with explicit
   reconvergence around it, bumping the route epoch both times) sits
   at 40% of the horizon. *)
let hostile_plan ~horizon ~island =
  let p_at, heal_at = partition_times ~horizon in
  Fault.Plan.make
    [
      (0.0, Fault.Plan.Jitter { max_delay = 1.0 });
      (0.0, Fault.Plan.Reorder { window = 2.0; prob = 0.15 });
      (0.0, Fault.Plan.Duplicate { prob = 0.03 });
      (0.0, Fault.Plan.Burst_loss { prob = 0.02; len = 3 });
      (0.1 *. horizon, Fault.Plan.Drop_control { prob = 0.05 });
      (0.3 *. horizon, Fault.Plan.Drop_control { prob = 0.0 });
      (p_at, Fault.Plan.Partition_named { name = "soak"; island });
      (p_at +. Fault.Plan.detection_lag, Fault.Plan.Reconverge);
      (heal_at, Fault.Plan.Heal_named { name = "soak" });
      (heal_at +. Fault.Plan.detection_lag, Fault.Plan.Reconverge);
    ]

let run_proto ~seed ~horizon proto (config : Common.config) =
  let rng = Stats.Rng.create seed in
  let s =
    Workload.Scenario.make rng config.Common.graph ~source:config.Common.source
      ~candidates:config.Common.candidates ~n:8
  in
  let receivers = List.sort compare s.Workload.Scenario.receivers in
  let churners =
    List.filter (fun c -> not (List.mem c receivers)) config.Common.candidates
    |> List.filteri (fun i _ -> i < 4)
  in
  let sut =
    Faults.session proto config.Common.graph ~source:s.Workload.Scenario.source
  in
  List.iter sut.Sut.subscribe receivers;
  sut.Sut.converge ();
  let mon = Verif.Monitor.attach sut in
  let t0 = sut.Sut.now () in
  (* Member churn: a precomputed seeded schedule driven through
     the SUT's subscribe/unsubscribe hooks. *)
  let crng = Stats.Rng.create (seed lxor 0x50ac) in
  let churn =
    List.concat_map
      (fun m -> churn_events crng ~horizon ~t2:Faults.t2 m)
      churners
  in
  List.iter
    (fun (at, m, join) ->
      ignore
        (Engine.schedule ~tag:"soak.churn" sut.Sut.engine ~delay:at
           (fun () ->
             if join then sut.Verif.Sut.subscribe m
             else sut.Verif.Sut.unsubscribe m)))
    churn;
  (* The hostile stream proper.  The island is the last stable
     receiver's host: its access link is cut for the window, so its
     degradation (goodput floor, outage, control inflation) is
     measured while every other member keeps the stream. *)
  let island = [ List.nth receivers (List.length receivers - 1) ] in
  let p_at, heal_at = partition_times ~horizon in
  let st =
    Faults.stream ~monitor:mon ~fault_at:p_at ~heal_at
      ~plan:(hostile_plan ~horizon ~island)
      ~timeline:
        ( timeline_interval,
          [
            ("deliveries", fun r -> float_of_int (Fault.Recovery.copy_count r));
            ("control_hops", fun _ -> float_of_int (sut.Sut.control_hops ()));
            ("members", fun _ -> float_of_int (List.length (sut.Sut.members ())));
            ( "confirmed_violations",
              fun _ -> float_of_int (Verif.Monitor.violation_count mon) );
          ] )
      ~seed ~horizon ~receivers sut
  in
  (* An outage is unhealed if a stable receiver has been silent for
     the last 2*t2 of the probe stream — soft state that was going to
     recover has had every chance to. *)
  let probe_until = horizon -. Faults.delivery_slack in
  let unhealed =
    List.filter
      (fun r ->
        match Fault.Recovery.last_delivery st.Faults.recovery r with
        | Some l -> (t0 +. probe_until) -. l > 2.0 *. Faults.t2
        | None -> true)
      receivers
  in
  let report = st.Faults.report in
  let prefix = Printf.sprintf "soak.%s" (Sut.name proto) in
  Fault.Recovery.export ~prefix (Obs.Metrics.default ()) report;
  Obs.Metrics.set
    (Obs.Metrics.gauge (Obs.Metrics.default ()) (prefix ^ ".violations"))
    (float_of_int (Verif.Monitor.violation_count mon));
  Obs.Metrics.set
    (Obs.Metrics.gauge (Obs.Metrics.default ()) (prefix ^ ".unhealed"))
    (float_of_int (List.length unhealed));
  {
    r_proto = proto;
    r_churn_events = List.length churn;
    r_probes = Fault.Recovery.sent_count st.Faults.recovery;
    r_deliveries = Fault.Recovery.copy_count st.Faults.recovery;
    r_checks = Verif.Monitor.checks mon;
    r_violations = Verif.Monitor.violations mon;
    r_unhealed = unhealed;
    r_report = report;
    r_timeline = Option.get st.Faults.timeline;
  }

let run ?(seed = 42) ?(protocols = Sut.all) ~hours () =
  if not (Float.is_finite hours) || hours <= 0.0 then
    invalid_arg "Soak.run: hours must be positive";
  let horizon = hours *. 3600.0 in
  if horizon < min_horizon then
    invalid_arg
      (Printf.sprintf
         "Soak.run: horizon %.0f too short for a partition/heal cycle (need \
          >= %.0f time units)"
         horizon min_horizon);
  Obs.Metrics.reset (Obs.Metrics.default ());
  let config = Common.isp_config () in
  List.map (fun p -> run_proto ~seed ~horizon p config) protocols

(* ---- Rendering ---------------------------------------------------- *)

let headers =
  [
    "protocol";
    "probes";
    "delivered";
    "churn";
    "checks";
    "confirmed";
    "unhealed";
    "goodput-floor";
    "worst-outage";
    "ctl-infl(part)";
  ]

let fmt_ratio v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" v

let row r =
  [
    Sut.label r.r_proto;
    string_of_int r.r_probes;
    string_of_int r.r_deliveries;
    string_of_int r.r_churn_events;
    string_of_int r.r_checks;
    string_of_int (List.length r.r_violations);
    string_of_int (List.length r.r_unhealed);
    fmt_ratio r.r_report.Fault.Recovery.goodput_floor;
    (if Float.is_nan r.r_report.Fault.Recovery.worst_outage then "-"
     else Printf.sprintf "%.0f" r.r_report.Fault.Recovery.worst_outage);
    fmt_ratio r.r_report.Fault.Recovery.inflation_during_fault;
  ]

let pp_results ppf results =
  Stats.Table.render ppf ~headers (List.map row results)
