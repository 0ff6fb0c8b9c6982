(* Command-line driver reproducing the paper's evaluation.  Each
   subcommand regenerates one figure (or demo) and prints the series
   as an aligned table, like the paper's plots read as data. *)

open Cmdliner

(* ---- Option table ------------------------------------------------------ *)

(* Range checks run in the parser: a count or a duration out of range
   is a bad invocation, rejected like a malformed one (exit 2), never a
   run that sizes an array with it or reports a vacuous pass. *)
let checked_conv of_string ok expected pp =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', %s" s expected))
  in
  Arg.conv (parse, pp)

(* [name], when given, is quoted in the diagnostic as "NAME must be >=
   N" (the wording the CLI tests pin). *)
let int_at_least ?name n =
  let expected =
    match name with
    | Some name -> Printf.sprintf "%s must be >= %d" name n
    | None when n = 0 -> "expected a non-negative integer"
    | None -> Printf.sprintf "expected an integer >= %d" n
  in
  checked_conv int_of_string_opt (fun v -> v >= n) expected Format.pp_print_int

let positive_float msg =
  checked_conv float_of_string_opt
    (fun v -> Float.is_finite v && v > 0.0)
    msg Format.pp_print_float

(* A sampling interval is at least one time unit, the smallest link
   delay: a finer grid sees no change a unit grid misses, and below
   one a run can spend its memory on sample points (a float clock
   stops advancing at 1e-300) or its event budget on sampling timers. *)
let sampling_interval msg =
  checked_conv float_of_string_opt
    (fun v -> Float.is_finite v && v >= 1.0)
    msg Format.pp_print_float

let runs_arg ?(doc = "Simulation runs per group size (paper: 500).") default =
  Arg.(value & opt (int_at_least 1) default & info [ "runs" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Master random seed; equal seeds reproduce results exactly." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let csv_arg =
  let doc = "Emit CSV instead of an aligned table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

(* Shared by every sweep-shaped subcommand.  The contract (enforced by
   construction in [Experiments.Sweep] and tested in test_parallel) is
   that the output is byte-identical for every value of [--jobs]. *)
let jobs_arg =
  let doc =
    "Shard independent runs across $(docv) domains.  Output is \
     byte-identical to $(b,--jobs 1) — parallelism changes wall time, \
     never results."
  in
  Arg.(value & opt (int_at_least 1) 1 & info [ "jobs" ] ~docv:"N" ~doc)

(* Every output file flag; the file is written by [write_file]. *)
let file_arg names doc =
  Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)

let json_arg doc = file_arg [ "json" ] doc
let timeline_ndjson_arg doc = file_arg [ "timeline-ndjson" ] doc

let metrics_json_arg =
  file_arg [ "metrics-json" ]
    "Write the metrics registry snapshot as JSON to $(docv)."

let openmetrics_arg =
  file_arg [ "openmetrics" ]
    "Write the metrics registry in OpenMetrics text format to $(docv)."

(* One converter, built from the protocol registry, shared by every
   subcommand that takes [--protocol]: the registry's names and aliases
   are accepted everywhere, and unknown values are rejected the same
   way everywhere, with the known names listed in the error. *)
let protocol_names = List.map Verif.Sut.name Verif.Sut.all

let protocol_conv =
  let parse s =
    match Verif.Sut.of_string s with
    | p -> Ok p
    | exception Invalid_argument _ ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%s', expected one of %s" s
                (String.concat ", "
                   (List.map (Printf.sprintf "'%s'") protocol_names))))
  in
  Arg.conv ~docv:"P"
    (parse, fun ppf p -> Format.pp_print_string ppf (Verif.Sut.name p))

let protocol_doc =
  String.concat ", " (List.map (fun n -> "$(b," ^ n ^ ")") protocol_names)

let protocol_info doc = Arg.info [ "protocol" ] ~docv:"P" ~doc

let protocols_arg ?(default_doc = "every protocol the subcommand supports")
    default =
  let doc =
    Printf.sprintf
      "Restrict the run to protocol $(docv) (one of %s); repeatable. \
       Default: %s."
      protocol_doc default_doc
  in
  Arg.(value & opt_all protocol_conv default & protocol_info doc)

(* The one exit-2 usage printer: every "bad invocation" path funnels
   through here.  Per-command flags are not listed: Cmdliner renders
   them from the option table as each command's --help. *)
let print_usage () =
  Printf.eprintf
    "usage: hbh_sim COMMAND [OPTION]...  (--protocol %s where taken)\n\
     (try 'hbh_sim --help' or 'hbh_sim COMMAND --help')\n"
    (String.concat "|" protocol_names)

(* A bad invocation found after parsing (a cross-flag constraint, an
   unwritable output path) leaves the same way Cmdliner's own
   rejections do: the diagnostic, the shared usage, exit 2. *)
let usage_error msg =
  Printf.eprintf "hbh_sim: %s\n" msg;
  print_usage ();
  exit 2

(* The one output writer.  [what] announces the file on stderr
   ("<what> written to FILE"); the bytes are [contents] exactly. *)
let write_file ?what file contents =
  (match
     let oc = open_out file in
     output_string oc contents;
     close_out oc
   with
  | () -> ()
  | exception Sys_error reason ->
      (* Sys_error reads "FILE: reason"; name the file once. *)
      let prefix = file ^ ": " in
      let reason =
        if String.starts_with ~prefix reason then
          String.sub reason (String.length prefix)
            (String.length reason - String.length prefix)
        else reason
      in
      usage_error (Printf.sprintf "cannot write %s: %s" file reason));
  Option.iter (fun what -> Format.eprintf "%s written to %s@." what file) what

let write_json ?what file json =
  write_file ?what file (Obs.Json.to_string json ^ "\n")

let write_metrics_json file =
  write_json ~what:"metrics snapshot" file
    (Obs.Metrics.snapshot_to_json (Obs.Metrics.snapshot (Obs.Metrics.default ())))

let write_openmetrics file =
  write_file ~what:"openmetrics" file
    (Obs.Openmetrics.of_metrics (Obs.Metrics.default ()))

let print_group ~csv group =
  if csv then print_string (Stats.Series.to_csv group)
  else Stats.Series.render Format.std_formatter group

let topo_config ~seed = function
  | `Isp -> Experiments.Common.isp_config ()
  | `Rand50 -> Experiments.Common.rand50_config ~seed

(* ---- Observability ---------------------------------------------------- *)

let trace_arg =
  let doc =
    "Record typed protocol events (joins, tree refreshes, fusions, table \
     updates) during a companion event-driven run and print the last \
     $(docv) of them (default 40) after the command's own output."
  in
  Arg.(
    value
    & opt ~vopt:(Some 40) (some (int_at_least 0)) None
    & info [ "trace" ] ~docv:"N" ~doc)

let trace_verbose_arg =
  let doc =
    "With $(b,--trace): also record per-packet forward and duplicate \
     events (high volume)."
  in
  Arg.(value & flag & info [ "trace-verbose" ] ~doc)

let metrics_arg =
  let doc =
    "Print the metrics registry snapshot (protocol message counters, \
     network accounting, delay histogram) and the companion run's engine \
     profiles."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* One constructor for the subcommands that take --seed and the
   observability flags: the analytic figures, ablations and demos, and
   validate.  [term] yields the run for a seed.

   The figure commands are analytic (no event engine), so protocol
   message telemetry has nothing to record during them.  When an
   observability flag is given we therefore also run the paper's
   event-driven HBH + REUNITE sample on the [topo] topology
   ({!Experiments.Common.instrumented_sample}) with profiling on; its
   counters, typed events and engine profiles join the snapshot. *)
let analytic name ~doc ?(topo = `Isp) term =
  let run last verbose metrics metrics_json seed body =
    if last = None && (not metrics) && metrics_json = None then body seed
    else begin
      let trace = Obs.Trace.create ~enabled:true () in
      if verbose then Obs.Trace.set_verbose trace true;
      body seed;
      let sample =
        Experiments.Common.instrumented_sample ~trace ~seed
          (topo_config ~seed topo)
      in
      (match last with
      | None -> ()
      | Some n ->
          let evs = Obs.Trace.last trace n in
          Format.printf
            "@.== Trace: last %d of %d events (companion run, %d receivers) ==@."
            (List.length evs) (Obs.Trace.length trace) sample.sample_size;
          if Obs.Trace.dropped trace > 0 then
            Format.printf
              "(ring truncated: %d older events dropped, high water %d)@."
              (Obs.Trace.dropped trace)
              (Obs.Trace.high_water trace);
          List.iter (fun e -> Format.printf "%a@." Obs.Event.pp e) evs);
      let snap = Obs.Metrics.snapshot (Obs.Metrics.default ()) in
      if metrics then begin
        Format.printf "@.== Metrics ==@.%a@." Obs.Metrics.pp_snapshot snap;
        List.iter
          (fun (p, profile) ->
            Format.printf "@.== %s engine profile (companion run) ==@.%a@."
              (Verif.Sut.label p) Eventsim.Engine.pp_profile profile)
          sample.profiles
      end;
      Option.iter write_metrics_json metrics_json
    end
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ trace_arg $ trace_verbose_arg $ metrics_arg
      $ metrics_json_arg $ seed_arg $ term)

let print_headline label (r : Experiments.Common.result) =
  let h = Experiments.Figures.headline r in
  Format.printf "@.HBH vs REUNITE on the %s: cost advantage %.1f%%, delay advantage %.1f%%@."
    label h.hbh_cost_advantage_pct h.hbh_delay_advantage_pct

let fig_cmd name figure ~cost ~topo =
  let where, label, sweep =
    match topo with
    | `Isp -> ("ISP topology", "ISP topology", Experiments.Figures.isp)
    | `Rand50 ->
        ( "50-node random topology",
          "random topology",
          Experiments.Figures.rand50 )
  in
  let doc =
    Printf.sprintf "Reproduce figure %s: %s on the %s." figure
      (if cost then "average tree cost (packet copies)"
       else "average receiver delay")
      where
  in
  let run runs jobs csv seed =
    let result = sweep ~runs ~seed ~jobs () in
    print_group ~csv (if cost then result.cost else result.delay);
    if not csv then print_headline label result
  in
  analytic name ~doc ~topo Term.(const run $ runs_arg 500 $ jobs_arg $ csv_arg)

let all_cmd =
  let doc = "Reproduce all four evaluation figures (7a, 7b, 8a, 8b)." in
  let run runs jobs csv seed =
    let isp = Experiments.Figures.isp ~runs ~seed ~jobs () in
    let rand = Experiments.Figures.rand50 ~runs ~seed ~jobs () in
    Format.printf "== Figure 7(a) ==@.";
    print_group ~csv isp.cost;
    Format.printf "@.== Figure 7(b) ==@.";
    print_group ~csv rand.cost;
    Format.printf "@.== Figure 8(a) ==@.";
    print_group ~csv isp.delay;
    Format.printf "@.== Figure 8(b) ==@.";
    print_group ~csv rand.delay;
    if not csv then begin
      print_headline "ISP topology" isp;
      print_headline "random topology" rand
    end
  in
  analytic "all" ~doc Term.(const run $ runs_arg 500 $ jobs_arg $ csv_arg)

let stability_cmd =
  let doc =
    "Tree reconfiguration after one member departure (Figure 4's claim)."
  in
  let run runs csv seed =
    let result =
      Experiments.Stability.run ~runs ~seed
        (Experiments.Common.isp_config ())
    in
    let routers, routes = Experiments.Stability.to_groups result in
    print_group ~csv routers;
    Format.printf "@.";
    print_group ~csv routes
  in
  analytic "stability" ~doc Term.(const run $ runs_arg 200 $ csv_arg)

let state_cmd =
  let doc = "Control-plane state footprint (MCT/MFT entries) vs group size." in
  let run runs csv seed =
    let result =
      Experiments.State.run ~runs ~seed (Experiments.Common.isp_config ())
    in
    print_group ~csv result.mft;
    Format.printf "@.";
    print_group ~csv result.mct;
    Format.printf "@.";
    print_group ~csv result.branching
  in
  analytic "state" ~doc Term.(const run $ runs_arg 200 $ csv_arg)

let demo_asymmetry_cmd =
  let doc =
    "Figure 2/5 walk-through: REUNITE serves r2 on a detour; HBH on the \
     shortest path."
  in
  let run _seed =
    let module D = Experiments.Scenarios.Detour in
    Format.printf
      "Topology: the Section 2.3 example (S=0, R1..R4=1..4, r1=5, r2=6).@.";
    (match D.reunite_r2_path () with
    | Some p ->
        Format.printf "REUNITE data path to r2: %a@." Routing.Path.pp p
    | None -> Format.printf "REUNITE data path to r2: (none)@.");
    Format.printf "HBH data path to r2:     %a@." Routing.Path.pp
      (D.hbh_r2_path ());
    Format.printf "Extra delay REUNITE imposes on r2: %.1f time units@."
      (D.delay_gap ())
  in
  analytic "demo-asymmetry" ~doc (Term.const run)

let demo_duplication_cmd =
  let doc =
    "Figure 3 walk-through: REUNITE duplicates packets on a shared link; HBH \
     does not."
  in
  let run _seed =
    let module D = Experiments.Scenarios.Duplication in
    let u, v = D.shared_link in
    Format.printf
      "Topology: the Figure 3 example; shared link R1-R6 is (%d,%d).@." u v;
    Format.printf "Copies on the shared link: REUNITE %d, HBH %d@."
      (D.reunite_copies_on_shared_link ())
      (D.hbh_copies_on_shared_link ());
    Format.printf "Tree cost: REUNITE %d, HBH %d@." (D.reunite_cost ())
      (D.hbh_cost ())
  in
  analytic "demo-duplication" ~doc (Term.const run)

let scaling_cmd =
  let doc =
    "Test the paper's concluding claim: HBH's advantage over REUNITE grows \
     with larger and more connected networks."
  in
  let run runs jobs csv seed =
    Format.printf "== Advantage vs connectivity (50 routers, 10 receivers) ==@.";
    print_group ~csv
      (Experiments.Scaling.group ~x_label:"avg degree x10"
         (Experiments.Scaling.connectivity ~runs ~seed ~jobs ()));
    Format.printf "@.== Advantage vs network size (degree 4, n/5 receivers) ==@.";
    print_group ~csv
      (Experiments.Scaling.group ~x_label:"routers"
         (Experiments.Scaling.size ~runs ~seed ~jobs ()))
  in
  analytic "scaling" ~doc ~topo:`Rand50
    Term.(const run $ runs_arg 150 $ jobs_arg $ csv_arg)

let symmetry_cmd =
  let doc =
    "Ablation: rerun the cost/delay comparison with symmetric link costs — \
     REUNITE's penalty (the paper's thesis) should collapse."
  in
  let run runs csv seed =
    let r =
      Experiments.Ablations.symmetry ~runs ~seed
        (Experiments.Common.isp_config ())
    in
    Format.printf "== Asymmetric costs (paper's setting) ==@.";
    print_group ~csv r.asymmetric.cost;
    Format.printf "@.";
    print_group ~csv r.asymmetric.delay;
    Format.printf "@.== Symmetric costs ==@.";
    print_group ~csv r.symmetric.cost;
    Format.printf "@.";
    print_group ~csv r.symmetric.delay;
    if not csv then begin
      let a = Experiments.Figures.headline r.asymmetric in
      let s = Experiments.Figures.headline r.symmetric in
      Format.printf
        "@.HBH cost advantage over REUNITE: %.1f%% asymmetric -> %.1f%% symmetric@."
        a.hbh_cost_advantage_pct s.hbh_cost_advantage_pct;
      Format.printf
        "HBH delay advantage over REUNITE: %.1f%% asymmetric -> %.1f%% symmetric@."
        a.hbh_delay_advantage_pct s.hbh_delay_advantage_pct
    end
  in
  analytic "symmetry-ablation" ~doc Term.(const run $ runs_arg 200 $ csv_arg)

let overhead_cmd =
  let doc =
    "Steady-state control-plane overhead of the live HBH and REUNITE \
     protocols (message link-traversals per tree period)."
  in
  let run runs csv seed =
    let points =
      Experiments.Ablations.overhead ~runs ~seed
        ~sizes:[ 2; 4; 8; 12; 16 ]
        (Experiments.Common.isp_config ())
    in
    print_group ~csv (Experiments.Ablations.overhead_group points)
  in
  analytic "overhead" ~doc
    Term.(const run $ runs_arg ~doc:"Runs per size." 5 $ csv_arg)

let validate_cmd =
  let doc =
    "Check that the event-driven protocols (full message processing, soft \
     state) converge to the analytically predicted trees."
  in
  let scenarios =
    Arg.(
      value
      & opt (int_at_least 1) 30
      & info [ "scenarios" ] ~docv:"N" ~doc:"Randomized scenarios per protocol.")
  in
  (* The protocols with an analytic oracle (a paper regime). *)
  let oracles = Experiments.Common.paper_protocols in
  let run scenarios protocols seed =
    List.iter
      (fun p ->
        if not (List.mem p oracles) then
          usage_error
            (Printf.sprintf
               "validate has no analytic %s oracle; --protocol must be %s"
               (Verif.Sut.label p)
               (String.concat " or " (List.map Verif.Sut.name oracles))))
      protocols;
    let config = Experiments.Common.isp_config () in
    List.iter
      (fun p ->
        Format.printf "%-27s%a@."
          (Verif.Sut.label p ^ " event vs analytic:")
          Experiments.Validate.pp
          (Experiments.Validate.run ~scenarios ~seed p config))
      protocols
  in
  analytic "validate" ~doc
    Term.(const run $ scenarios $ protocols_arg oracles)

let rp_ablation_cmd =
  let doc =
    "Ablation: PIM-SM receiver delay under different rendez-vous-point \
     placement strategies, against PIM-SS and HBH."
  in
  let run runs csv seed =
    let config = Experiments.Common.isp_config () in
    let strategies =
      [
        ("RP=random", Pim.Rp.Random);
        ("RP=core", Pim.Rp.Highest_degree);
        ("RP=best", Pim.Rp.Best_delay);
        ("RP=worst", Pim.Rp.Worst_delay);
      ]
    in
    let series =
      List.map
        (fun (name, strategy) ->
          let r =
            Experiments.Common.sweep ~runs ~seed ~rp_strategy:strategy
              ~protocols:[ Experiments.Common.Pim_sm ] config
          in
          let s = Stats.Series.create name in
          List.iter
            (fun serie ->
              List.iter
                (fun (x, v) -> Stats.Series.observe s ~x v)
                (Stats.Series.points serie))
            (Stats.Series.group_series r.delay);
          s)
        strategies
    in
    let others =
      Experiments.Common.sweep ~runs ~seed
        ~protocols:[ Experiments.Common.Pim_ss; Experiments.Common.Hbh ]
        config
    in
    let group =
      Stats.Series.group ~title:"PIM-SM delay vs RP placement (ISP topology)"
        ~x_label:"receivers" ~y_label:"avg delay (time units)"
        (series @ Stats.Series.group_series others.delay)
    in
    print_group ~csv group
  in
  analytic "rp-ablation" ~doc Term.(const run $ runs_arg 150 $ csv_arg)

let asymmetry_cmd =
  let doc = "Measure unicast route asymmetry on the evaluation topologies." in
  let run seed =
    let rng = Stats.Rng.create seed in
    let show label g =
      Workload.Scenario.randomize rng g;
      let table = Routing.Table.compute g in
      let r = Routing.Asymmetry.measure table in
      Format.printf
        "%-25s %d router pairs, %.1f%% asymmetric routes, mean |delay gap| %.2f@."
        label r.pairs
        (100.0 *. r.asymmetric_fraction)
        r.mean_delay_gap
    in
    show "ISP topology" (Topology.Isp.create ());
    let g50 =
      Topology.Generators.random_connected (Stats.Rng.create seed) ~n:50
        ~avg_degree:8.6
    in
    show "50-node random topology" g50
  in
  analytic "asymmetry" ~doc (Term.const run)

let faults_cmd =
  let doc =
    "Fault-injection recovery experiment: every registered protocol (HBH, \
     REUNITE, PIM-SSM, HPIM-DM) through \
     a mid-tree router crash (with restart), a tree-link failure (with \
     restoration) and a 30% loss burst, with routing reconvergence after \
     each topology change.  Deterministic in $(b,--seed): equal seeds \
     reproduce the report and the metrics snapshot bit for bit.  A case \
     that fires more than its event budget is stopped and reported as a \
     $(b,runaway) row, and the command then exits 1."
  in
  let scenario =
    let doc =
      "Run a single scenario ($(docv) is $(b,crash), $(b,link-down) or \
       $(b,loss-burst)) instead of all three."
    in
    let scenario_conv =
      Arg.enum
        (List.map
           (fun s -> (Experiments.Faults.scenario_name s, s))
           Experiments.Faults.all_scenarios)
    in
    Arg.(value & opt (some scenario_conv) None & info [ "scenario" ] ~docv:"S" ~doc)
  in
  let timeline =
    let doc =
      "Sample per-case recovery timelines (repaired receivers, deliveries, \
       control hops) every $(docv) simulated time units (at least 1, default \
       50) and print them after the report."
    in
    let interval =
      sampling_interval
        "--timeline needs a positive sampling interval of at least 1 \
         (simulated time units)"
    in
    Arg.(
      value
      & opt ~vopt:(Some 50.0) (some interval) None
      & info [ "timeline" ] ~docv:"DT" ~doc)
  in
  let timeline_ndjson =
    timeline_ndjson_arg
      "Write the sampled timelines as NDJSON (one row per sample, tagged \
       with its case) to $(docv); implies $(b,--timeline)."
  in
  let monitor =
    let doc =
      "Arm runtime invariant monitors (loop freedom, coverage, HBH \
       first-join and fusion placement) on every case and report confirmed \
       violations.  Monitors are pure observation: outcomes are identical \
       with or without them."
    in
    Arg.(value & flag & info [ "monitor" ] ~doc)
  in
  let run seed jobs metrics_json scenario protocols timeline timeline_ndjson
      monitor openmetrics =
    let scenarios =
      match scenario with
      | None -> Experiments.Faults.all_scenarios
      | Some s -> [ s ]
    in
    let timeline_dt =
      match (timeline, timeline_ndjson) with
      | Some dt, _ -> Some dt
      | None, Some _ -> Some 50.0
      | None, None -> None
    in
    let instrument =
      if timeline_dt = None && not monitor then None
      else
        Some
          {
            Experiments.Faults.i_timeline = timeline_dt;
            i_monitor = monitor;
          }
    in
    let outcomes, obs =
      Experiments.Faults.run_observed ?instrument ~seed ~scenarios ~protocols
        ~jobs ()
    in
    Experiments.Faults.pp_outcomes Format.std_formatter outcomes;
    let crash_ok =
      List.filter
        (fun (o : Experiments.Faults.outcome) ->
          o.scenario = Experiments.Faults.Crash
          && o.proto = Verif.Sut.Hbh)
        outcomes
    in
    List.iter
      (fun (o : Experiments.Faults.outcome) ->
        let r = o.report in
        Format.printf
          "@.HBH after the %s crash (%s): %s within the %.0f budget (ttr %s, \
           %d lost, %d duplicated)@."
          o.target o.topology
          (if
             (not o.runaway)
             && r.Fault.Recovery.recovered
             && match r.Fault.Recovery.max_time_to_repair with
                | Some ttr -> ttr <= o.budget
                | None -> false
           then "re-delivered to all receivers"
           else "DID NOT recover")
          o.budget
          (match r.Fault.Recovery.max_time_to_repair with
          | Some ttr -> Printf.sprintf "%.0f" ttr
          | None -> "-")
          r.Fault.Recovery.total_lost r.Fault.Recovery.total_duplicated)
      crash_ok;
    (* Everything below is flag-gated: the default report stays
       bit-identical to the pinned golden. *)
    if instrument <> None then begin
      Format.printf "@.== Time-to-repair spans ==@.";
      List.iter
        (fun (c : Experiments.Faults.case_obs) ->
          Format.printf "%-32s %a@." c.Experiments.Faults.c_label
            Obs.Span.pp_stats c.Experiments.Faults.c_repair)
        obs
    end;
    if timeline_dt <> None then
      List.iter
        (fun (c : Experiments.Faults.case_obs) ->
          match c.Experiments.Faults.c_timeline with
          | None -> ()
          | Some tl ->
              Format.printf "@.== Timeline: %s ==@.%a"
                c.Experiments.Faults.c_label Obs.Timeline.pp tl)
        obs;
    if monitor then begin
      Format.printf "@.== Invariant monitors ==@.";
      let total =
        List.fold_left
          (fun acc (c : Experiments.Faults.case_obs) ->
            match c.Experiments.Faults.c_monitor with
            | None -> acc
            | Some m ->
                Format.printf "%a@." Verif.Monitor.pp_summary m;
                acc + Verif.Monitor.violation_count m)
          0 obs
      in
      Format.printf "monitors: %d violations@." total
    end;
    Option.iter
      (fun file ->
        write_file ~what:"timelines" file
          (String.concat ""
             (List.filter_map
                (fun (c : Experiments.Faults.case_obs) ->
                  Option.map
                    (Obs.Timeline.to_ndjson
                       ~tags:[ ("case", c.Experiments.Faults.c_label) ])
                    c.Experiments.Faults.c_timeline)
                obs)))
      timeline_ndjson;
    Option.iter write_openmetrics openmetrics;
    Option.iter write_metrics_json metrics_json;
    let runaways =
      List.filter (fun (o : Experiments.Faults.outcome) -> o.runaway) outcomes
    in
    List.iter
      (fun (o : Experiments.Faults.outcome) ->
        Printf.eprintf "hbh_sim: runaway: %s/%s/%s stopped at the %d-event budget\n"
          o.topology
          (Experiments.Faults.scenario_name o.scenario)
          (Verif.Sut.label o.proto) Experiments.Faults.event_budget)
      runaways;
    if runaways <> [] then exit 1
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run $ seed_arg $ jobs_arg $ metrics_json_arg $ scenario
      $ protocols_arg Verif.Sut.all
      $ timeline $ timeline_ndjson $ monitor $ openmetrics_arg)

let soak_cmd =
  let doc =
    "Long-horizon hostile-network soak: each protocol runs $(b,--hours) \
     simulated hours of sustained membership churn under a seeded hostile \
     delivery stream — per-hop jitter, bounded reordering, duplication, \
     burst loss, a control-plane drop window and one named partition/heal \
     cycle with routing reconvergence — with the runtime invariant \
     monitors armed throughout.  Exits 1 on any confirmed monitor \
     violation or unhealed outage.  Deterministic in $(b,--seed): equal \
     seeds reproduce the output bit for bit."
  in
  let hours =
    let doc = "Simulated hours per protocol (fractions allowed)." in
    let hours =
      positive_float "--hours must be a positive number of simulated hours"
    in
    Arg.(value & opt hours 2.0 & info [ "hours" ] ~docv:"H" ~doc)
  in
  let timeline_ndjson =
    timeline_ndjson_arg
      "Write each protocol's soak timeline (deliveries, control hops, \
       member count, confirmed violations per 100 time units) as NDJSON to \
       $(docv)."
  in
  let run seed hours protocols timeline_ndjson openmetrics =
    if hours *. 3600.0 < Experiments.Soak.min_horizon then
      usage_error
        (Printf.sprintf
           "soak: --hours %g leaves no room for a partition/heal cycle (need \
            at least %g simulated hours)"
           hours
           (Experiments.Soak.min_horizon /. 3600.0));
    let results = Experiments.Soak.run ~seed ~protocols ~hours () in
    Format.printf
      "soak: %.2f simulated hours per protocol, seed %d, ISP topology@.@."
      hours seed;
    Experiments.Soak.pp_results Format.std_formatter results;
    List.iter
      (fun (r : Experiments.Soak.result) ->
        if r.r_violations <> [] then begin
          Format.printf "@.%s confirmed violations:@."
            (Verif.Sut.label r.r_proto);
          List.iter
            (fun (c : Verif.Monitor.confirmed) ->
              Format.printf "  t=%.0f %a@." c.Verif.Monitor.time
                Verif.Oracle.pp_violation c.Verif.Monitor.violation)
            r.r_violations
        end;
        if r.r_unhealed <> [] then
          Format.printf "@.%s unhealed outages: %s@."
            (Verif.Sut.label r.r_proto)
            (String.concat ", " (List.map string_of_int r.r_unhealed)))
      results;
    let total =
      List.fold_left
        (fun acc (r : Experiments.Soak.result) ->
          acc + List.length r.r_violations)
        0 results
    in
    Format.printf "@.monitors: %d violations@." total;
    Option.iter
      (fun file ->
        write_file ~what:"timelines" file
          (String.concat ""
             (List.map
                (fun (r : Experiments.Soak.result) ->
                  Obs.Timeline.to_ndjson
                    ~tags:[ ("case", "soak/" ^ Verif.Sut.label r.r_proto) ]
                    r.r_timeline)
                results)))
      timeline_ndjson;
    Option.iter write_openmetrics openmetrics;
    if List.exists Experiments.Soak.failed results then exit 1
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(
      const run $ seed_arg $ hours
      $ protocols_arg Verif.Sut.all
      $ timeline_ndjson $ openmetrics_arg)

(* The largest [--rate] x [--horizon] churn accepts.  Each expected
   arrival is drawn one by one, so the product, not the draw cost,
   bounds the schedule: at 1e9 x 10 a run never printed a line. *)
let churn_max_arrivals = 1e5

let churn_cmd =
  let doc =
    "Multi-channel churn on a generated internet-scale topology: one \
     network and one channel multiplexer carry $(b,--channels) concurrent \
     channels with Zipf popularity and per-channel Poisson membership \
     churn; sampled channels are probed through the live data plane and \
     compared against freshly re-optimized analytic trees (tree-cost and \
     delay degradation), for each protocol at normal and 10x-stretched \
     control periods.  Deterministic in $(b,--seed): $(b,--jobs) never \
     changes a byte of output."
  in
  let channels =
    let doc = "Concurrent channels sharing the multiplexer." in
    Arg.(
      value
      & opt (int_at_least ~name:"--channels" 1) 1000
      & info [ "channels" ] ~docv:"N" ~doc)
  in
  let routers =
    let doc = "Router count of the generated topology (one host each)." in
    Arg.(
      value
      & opt (int_at_least ~name:"--routers" 16) 5000
      & info [ "routers" ] ~docv:"N" ~doc)
  in
  let gen =
    let gens =
      List.map
        (fun g -> (Experiments.Churn.gen_name g, g))
        Experiments.Churn.gens
    in
    let doc = "Topology generator, " ^ Arg.doc_alts_enum gens ^ "." in
    Arg.(
      value
      & opt (enum gens) Experiments.Churn.default_params.gen
      & info [ "gen" ] ~docv:"G" ~doc)
  in
  let rate =
    let doc =
      Printf.sprintf
        "Aggregate join rate over all channels (joins per time unit).  \
         $(b,--rate) times $(b,--horizon), the expected number of join \
         arrivals, must be at most %g: the schedule draws 3-4x10^5 \
         arrivals a second when every arrival joins (2 vCPU, OCaml 5.1.1), \
         so a schedule at the ceiling takes about 0.3 s and 45 MB."
        churn_max_arrivals
    in
    let rate = positive_float "--rate must be a positive join rate" in
    Arg.(value & opt rate 0.5 & info [ "rate" ] ~docv:"R" ~doc)
  in
  let hold =
    let doc = "Mean membership hold time (exponential)." in
    let hold = positive_float "--hold must be a positive mean hold time" in
    Arg.(value & opt hold 300.0 & info [ "hold" ] ~docv:"T" ~doc)
  in
  let horizon =
    let doc = "Churn horizon in simulated time units." in
    let horizon = positive_float "--horizon must be a positive duration" in
    Arg.(value & opt horizon 2000.0 & info [ "horizon" ] ~docv:"T" ~doc)
  in
  let sample_every =
    let doc = "Interval between degradation sample points (at least 1)." in
    let dt =
      sampling_interval
        "--sample-every must be a positive interval of at least 1 (simulated \
         time units)"
    in
    Arg.(value & opt dt 500.0 & info [ "sample-every" ] ~docv:"DT" ~doc)
  in
  let arm =
    let doc =
      "Run a single arm ($(b,normal) or $(b,stretched)) instead of both."
    in
    Arg.(
      value
      & opt (some (enum [ ("normal", false); ("stretched", true) ])) None
      & info [ "arm" ] ~docv:"A" ~doc)
  in
  let run seed jobs protocols channels routers gen rate hold horizon
      sample_every arm json metrics_json openmetrics =
    if rate *. horizon > churn_max_arrivals then
      usage_error
        (Printf.sprintf
           "churn: --rate %g x --horizon %g expects %g join arrivals, above \
            the ceiling of %g"
           rate horizon (rate *. horizon) churn_max_arrivals);
    let arms = match arm with None -> [ false; true ] | Some a -> [ a ] in
    let params =
      {
        Experiments.Churn.default_params with
        gen;
        routers;
        channels;
        rate;
        mean_hold = hold;
        horizon;
        sample_every;
      }
    in
    let outcomes =
      Experiments.Churn.run ~protocols ~arms ~params ~jobs ~seed ()
    in
    Format.printf
      "churn: %d channels on a %d-router %s topology, aggregate rate %g, \
       seed %d@.@."
      channels routers
      (Experiments.Churn.gen_name gen)
      rate seed;
    Experiments.Churn.pp_outcomes Format.std_formatter outcomes;
    List.iter
      (fun (o : Experiments.Churn.outcome) ->
        Format.printf
          "%s/%s: %d control hops, %d per-channel series%s@."
          (Verif.Sut.label o.Experiments.Churn.o_proto)
          (Experiments.Churn.arm_name o.Experiments.Churn.o_stretched)
          o.Experiments.Churn.o_control_hops
          o.Experiments.Churn.o_hot_series
          (if o.Experiments.Churn.o_spilled then " (tail in _other)" else ""))
      outcomes;
    Option.iter
      (fun file ->
        write_json ~what:"outcomes" file (Experiments.Churn.to_json outcomes))
      json;
    Option.iter write_openmetrics openmetrics;
    Option.iter write_metrics_json metrics_json
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const run $ seed_arg $ jobs_arg
      $ protocols_arg
          ~default_doc:
            "$(b,hbh), $(b,reunite) and $(b,pim-ssm).  $(b,hpim-dm) runs \
             only when named: it keeps neighbour state per router and \
             channel, which at the default 5000 routers and 1000 channels \
             does not fit in memory"
          Verif.Sut.[ Hbh; Reunite; Pim_ssm ]
      $ channels $ routers $ gen $ rate $ hold $ horizon $ sample_every $ arm
      $ json_arg "Write the outcomes as JSON to $(docv)."
      $ metrics_json_arg $ openmetrics_arg)

let report_cmd =
  let doc =
    "Render the convergence report as markdown: the fault-recovery table, \
     per-case time-to-repair span quantiles, join-latency quantiles \
     (subscribe on a live stream to first packet), sampled recovery \
     timelines and the runtime invariant monitors' verdict.  Deterministic \
     in $(b,--seed)."
  in
  let out =
    file_arg [ "out"; "o" ] "Write the markdown to $(docv) instead of stdout."
  in
  let interval =
    let doc = "Timeline sampling interval (simulated time units, at least 1)." in
    let dt =
      sampling_interval
        "--interval needs a positive sampling interval of at least 1 \
         (simulated time units)"
    in
    Arg.(value & opt dt 50.0 & info [ "interval" ] ~docv:"DT" ~doc)
  in
  let run seed out interval =
    let instrument =
      {
        Experiments.Faults.i_timeline = Some interval;
        i_monitor = true;
      }
    in
    let outcomes, obs = Experiments.Faults.run_observed ~instrument ~seed () in
    let join_latency = Experiments.Faults.measure_join_latency ~seed () in
    let md = Experiments.Report.markdown ~seed ~outcomes ~obs ~join_latency () in
    match out with
    | None -> print_string md
    | Some file -> write_file ~what:"report" file md
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ seed_arg $ out $ interval)

(* ---- Systematic verification ------------------------------------------ *)

let verify_cmd =
  let doc =
    "Systematic scenario exploration with protocol oracles: bounded-depth \
     search over joins, leaves, link failures, crashes and loss bursts, \
     checking at every quiescent state that the tree is loop-free and spans \
     exactly the member set, that one data packet reaches every reachable \
     member exactly once, (HBH) that the first join reached the source \
     and every branching router sits on a source-member unicast path, and \
     (HPIM-DM) that every link has exactly one assert winner, assert \
     losers forward no data, and neighbor tables agree at quiescence.  \
     Counterexamples are minimized by delta debugging and printed as \
     replayable fault plans.  Deterministic in $(b,--seed)."
  in
  let protocol_arg =
    let doc = Printf.sprintf "Protocol to verify: one of %s." protocol_doc in
    Arg.(required & opt (some protocol_conv) None & protocol_info doc)
  in
  let depth_arg =
    let doc = "Maximum scenario length (events per path)." in
    Arg.(value & opt (int_at_least 0) 4 & info [ "depth" ] ~docv:"N" ~doc)
  in
  let states_arg =
    let doc = "Distinct-state budget for the search." in
    Arg.(value & opt (int_at_least 1) 1500 & info [ "states" ] ~docv:"N" ~doc)
  in
  let topology_arg =
    let doc = "Topology: $(b,isp) (18 routers) or $(b,rand50)." in
    Arg.(
      value
      & opt (enum [ ("isp", `Isp); ("rand50", `Rand50) ]) `Isp
      & info [ "topology" ] ~docv:"T" ~doc)
  in
  let no_shrink_arg =
    let doc = "Report raw counterexamples without ddmin minimization." in
    Arg.(value & flag & info [ "no-shrink" ] ~doc)
  in
  let run protocol depth states topology seed jobs json no_shrink =
    let make_sut () =
      let cfg = topo_config ~seed topology in
      Verif.Sut.make ~candidates:cfg.Experiments.Common.candidates protocol
        (Routing.Table.compute cfg.Experiments.Common.graph)
        ~source:cfg.Experiments.Common.source
    in
    let config =
      { Verif.Explore.default_config with depth; max_states = states; seed }
    in
    let outcome = Verif.Explore.run ~config (make_sut ()) in
    Format.printf "== %s: systematic exploration ==@.%a@."
      (Verif.Sut.name protocol)
      Verif.Explore.pp_outcome outcome;
    List.iter
      (fun path ->
        Format.printf "@.oscillation (no quiescence within budget): %a@."
          Verif.Scenario.pp_events path)
      outcome.Verif.Explore.oscillations;
    let shrunk =
      List.map
        (fun (cx : Verif.Explore.counterexample) ->
          let events =
            if no_shrink then cx.Verif.Explore.events
            else Verif.Shrink.minimize ~jobs ~make_sut cx
          in
          let plan, _ = Verif.Scenario.run (make_sut ()) events in
          (cx, events, Fault.Plan.to_string plan))
        outcome.Verif.Explore.counterexamples
    in
    List.iteri
      (fun i (cx, events, plan) ->
        Format.printf "@.== counterexample %d (%d events%s) ==@." (i + 1)
          (List.length events)
          (if no_shrink then "" else ", minimized");
        List.iter
          (fun v -> Format.printf "violates %a@." Verif.Oracle.pp_violation v)
          cx.Verif.Explore.violations;
        Format.printf "%a@.replayable plan:@.%s"
          Verif.Scenario.pp_events events plan)
      shrunk;
    Option.iter
      (fun file ->
        write_json ~what:"outcome" file
          (Obs.Json.Obj
             [
               ("protocol", Obs.Json.String (Verif.Sut.name protocol));
               ("depth", Obs.Json.Int outcome.Verif.Explore.depth);
               ("seed", Obs.Json.Int outcome.Verif.Explore.seed);
               ("states_explored", Obs.Json.Int outcome.Verif.Explore.states);
               ("transitions", Obs.Json.Int outcome.Verif.Explore.transitions);
               ("oracle_checks", Obs.Json.Int outcome.Verif.Explore.oracle_checks);
               ( "oscillations",
                 Obs.Json.Int (List.length outcome.Verif.Explore.oscillations) );
               ( "counterexamples",
                 Obs.Json.List
                   (List.map
                      (fun (cx, _, plan) ->
                        Obs.Json.Obj
                          [
                            ( "oracles",
                              Obs.Json.List
                                (List.map
                                   (fun (v : Verif.Oracle.violation) ->
                                     Obs.Json.String v.Verif.Oracle.oracle)
                                   cx.Verif.Explore.violations) );
                            ("plan", Obs.Json.String plan);
                          ])
                      shrunk) );
             ]))
      json;
    if outcome.Verif.Explore.counterexamples <> [] then exit 1
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const run $ protocol_arg $ depth_arg $ states_arg $ topology_arg
      $ seed_arg $ jobs_arg
      $ json_arg
          "Write the outcome (counts and counterexamples) as JSON to $(docv)."
      $ no_shrink_arg)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "hbh_sim" ~version:"1.0.0"
      ~doc:"Reproduction of the SIGCOMM'01 Hop-By-Hop multicast evaluation"
  in
  let group =
    Cmd.group ~default info
      [
            fig_cmd "fig7a" "7(a)" ~cost:true ~topo:`Isp;
            fig_cmd "fig7b" "7(b)" ~cost:true ~topo:`Rand50;
            fig_cmd "fig8a" "8(a)" ~cost:false ~topo:`Isp;
            fig_cmd "fig8b" "8(b)" ~cost:false ~topo:`Rand50;
            all_cmd;
            stability_cmd;
            state_cmd;
            demo_asymmetry_cmd;
            demo_duplication_cmd;
            rp_ablation_cmd;
            scaling_cmd;
            symmetry_cmd;
            overhead_cmd;
        asymmetry_cmd;
        validate_cmd;
        faults_cmd;
        churn_cmd;
        soak_cmd;
        report_cmd;
        verify_cmd;
      ]
  in
  (* Unknown subcommands or flags: one-line usage on stderr, exit 2
     (scripts distinguish "bad invocation" from a failing run). *)
  let err_buf = Buffer.create 256 in
  let err_fmt = Format.formatter_of_buffer err_buf in
  (* Only the first line of Cmdliner's diagnostic is printed below, so
     it must not be wrapped at the formatter's margin. *)
  Format.pp_set_margin err_fmt max_int;
  match Cmd.eval_value ~err:err_fmt group with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) ->
      Format.pp_print_flush err_fmt ();
      let msg = String.trim (Buffer.contents err_buf) in
      let first_line = List.hd (String.split_on_char '\n' msg) in
      if first_line <> "" then prerr_endline first_line;
      print_usage ();
      exit 2
  | Error `Exn ->
      Format.pp_print_flush err_fmt ();
      prerr_string (Buffer.contents err_buf);
      exit Cmd.Exit.internal_error
