(* Group dynamics: drive the two event-driven recursive-unicast
   protocols through the protocol registry ([Verif.Sut]) under a
   Poisson join/leave workload and watch delivery stay continuous
   while soft state reshapes — then quantify the Figure 4 claim (a
   departure perturbs HBH's tree less than REUNITE's).

     dune exec examples/churn_stability.exe
*)

let horizon = 6000.0

let pp_ints =
  Format.(pp_print_list ~pp_sep:(fun p () -> pp_print_string p " ") pp_print_int)

(* Typed trace events per label ("join", "tree", "fusion", ...), over
   both runs. *)
let census = Hashtbl.create 16

let count (e : Obs.Event.t) =
  let l = Obs.Event.label e.kind in
  Hashtbl.replace census l (1 + Option.value ~default:0 (Hashtbl.find_opt census l))

(* Replay the schedule on a fresh session of [protocol], then probe
   the survivors. *)
let run_protocol protocol table ~source schedule =
  Format.printf "@.== %s under churn ==@." (Verif.Sut.label protocol);
  let sut = Verif.Sut.make protocol table ~source in
  Obs.Trace.on_event sut.trace count;
  Eventsim.Engine.set_profiling sut.engine true;
  let last = ref 0.0 in
  List.iter
    (fun (t, ev) ->
      sut.run_for (t -. !last);
      last := t;
      match ev with
      | Workload.Churn.Join r -> sut.subscribe r
      | Workload.Churn.Leave r -> sut.unsubscribe r)
    schedule;
  sut.run_for (horizon -. !last);
  let members = Workload.Churn.members_at schedule horizon in
  let served = List.sort_uniq compare (List.map fst (sut.probe ())) in
  Format.printf "final members: %a@." pp_ints members;
  Format.printf "the source copies data to: %a@." pp_ints (sut.data_targets source);
  Format.printf "all survivors served: %b@." (served = members);
  sut

let () =
  let rng = Stats.Rng.create 99 in
  let graph = Topology.Isp.create () in
  Workload.Scenario.randomize rng graph;
  let table = Routing.Table.compute graph in
  let source = Topology.Isp.source in
  let schedule =
    Workload.Churn.poisson rng ~candidates:Topology.Isp.receiver_hosts
      ~rate:0.01 ~mean_hold:1500.0 ~horizon:(horizon -. 1500.0)
  in
  Format.printf "Churn schedule (%d events):@." (List.length schedule);
  List.iter
    (fun (t, ev) -> Format.printf "  %7.1f  %a@." t Workload.Churn.pp_event ev)
    schedule;
  let hbh = run_protocol Verif.Sut.Hbh table ~source schedule in
  let reunite = run_protocol Verif.Sut.Reunite table ~source schedule in

  (* The Figure 4 comparison, quantified over random departures. *)
  Format.printf "@.== One departure's blast radius (200 runs/size) ==@.@.";
  let r =
    Experiments.Stability.run ~runs:200 ~seed:5 (Experiments.Common.isp_config ())
  in
  let routers, routes = Experiments.Stability.to_groups r in
  Stats.Series.render Format.std_formatter routers;
  Format.printf "@.";
  Stats.Series.render Format.std_formatter routes;
  Format.printf
    "@.HBH never reroutes a remaining receiver; REUNITE does (Figure 2's r2).@.";

  (* What the telemetry layer saw of all the above. *)
  Format.printf "@.== Telemetry ==@.@.typed events under churn:@.";
  List.iter
    (fun (label, n) -> Format.printf "  %-10s %d@." label n)
    (List.sort compare (Hashtbl.fold (fun l n acc -> (l, n) :: acc) census []));
  Format.printf "@.HBH engine: %a@." Eventsim.Engine.pp_profile
    (Eventsim.Engine.profile hbh.engine);
  Format.printf "@.REUNITE engine: %a@." Eventsim.Engine.pp_profile
    (Eventsim.Engine.profile reunite.engine);
  Format.printf "@.metrics registry:@.%a@." Obs.Metrics.pp_snapshot
    (Obs.Metrics.snapshot (Obs.Metrics.default ()))
