(* The paper's headline experiment in miniature: on the ISP topology,
   compare the four protocols' trees for one random group draw, then a
   small Monte-Carlo sweep.

     dune exec examples/isp_scenario.exe
*)

let () =
  let rng = Stats.Rng.create 7 in
  let graph = Topology.Isp.create () in
  Workload.Scenario.randomize rng graph;
  let table = Routing.Table.compute graph in
  let source = Topology.Isp.source in
  let receivers =
    Workload.Scenario.pick_receivers rng
      ~candidates:Topology.Isp.receiver_hosts ~n:8
  in
  Format.printf "ISP topology (%a)@." Topology.Graph.pp graph;
  Format.printf "Source: host %d.  Receivers: %a@.@." source
    Format.(pp_print_list ~pp_sep:(fun p () -> pp_print_string p " ") pp_print_int)
    receivers;

  (* One draw, four protocols. *)
  let rp =
    Pim.Rp.select Pim.Rp.Highest_degree rng table ~source ~receivers
  in
  let trees =
    [
      ("PIM-SM ", Pim.Pim_sm.build table ~source ~rp ~receivers);
      ("PIM-SS ", Pim.Pim_ss.build table ~source ~receivers);
      ("REUNITE", Reunite.Analytic.build table ~source ~receivers);
      ("HBH    ", Hbh.Analytic.build table ~source ~receivers);
    ]
  in
  Format.printf
    "protocol  cost  links  dup-links  avg-delay  max-delay  max-stress@.";
  Format.printf
    "--------  ----  -----  ---------  ---------  ---------  ----------@.";
  List.iter
    (fun (name, d) ->
      Format.printf "%s   %4d  %5d  %9d  %9.2f  %9.2f  %10d@." name
        (Mcast.Distribution.cost d)
        (Mcast.Distribution.links_used d)
        (Mcast.Distribution.duplicated_links d)
        (Mcast.Distribution.avg_delay d)
        (Mcast.Distribution.max_delay d)
        (Mcast.Distribution.max_stress d))
    trees;

  (* Where REUNITE pays: per-receiver delay inflation vs HBH. *)
  let reunite = List.assoc "REUNITE" trees in
  let hbh = List.assoc "HBH    " trees in
  Format.printf "@.Per-receiver delay (REUNITE vs HBH):@.";
  List.iter
    (fun r ->
      let dr = Option.value ~default:nan (Mcast.Distribution.delay reunite r) in
      let dh = Option.value ~default:nan (Mcast.Distribution.delay hbh r) in
      Format.printf "  receiver %2d: %5.1f vs %5.1f%s@." r dr dh
        (if dr > dh then "   <- detour" else ""))
    receivers;

  (* A quick sweep, the shape of Figures 7(a)/8(a). *)
  Format.printf "@.Small sweep (100 runs per size):@.@.";
  let result = Experiments.Figures.isp ~runs:100 ~seed:11 () in
  Stats.Series.render Format.std_formatter result.cost;
  Format.printf "@.";
  Stats.Series.render Format.std_formatter result.delay;
  let h = Experiments.Figures.headline result in
  Format.printf
    "@.HBH vs REUNITE: %.1f%% cheaper trees, %.1f%% lower receiver delay@."
    h.hbh_cost_advantage_pct h.hbh_delay_advantage_pct
