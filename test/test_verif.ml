(* The verification layer: checkpoint/restore soundness, explorer
   determinism, golden counterexample replay, shrinking on HPIM-DM's
   assert defect.  The find-and-minimize pipeline is checked against
   a planted bug by test/mutants. *)

let isp_sut protocol () =
  let graph = Topology.Isp.create () in
  Verif.Sut.make ~candidates:Topology.Isp.receiver_hosts protocol
    (Routing.Table.compute graph)
    ~source:Topology.Isp.source

let rand50_sut protocol ~seed () =
  let cfg = Experiments.Common.rand50_config ~seed in
  Verif.Sut.make ~candidates:cfg.Experiments.Common.candidates protocol
    (Routing.Table.compute cfg.Experiments.Common.graph)
    ~source:cfg.Experiments.Common.source

let all_protocols = Verif.Sut.all

(* ---- The protocol registry --------------------------------------------- *)

let test_registry_names () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Verif.Sut.name p ^ " round-trips")
        true
        (Verif.Sut.of_string (Verif.Sut.name p) = p))
    Verif.Sut.all;
  Alcotest.(check (list string))
    "canonical names"
    [ "hbh"; "reunite"; "pim-ssm"; "hpim-dm" ]
    (List.map Verif.Sut.name Verif.Sut.all);
  Alcotest.(check bool) "pim alias" true
    (Verif.Sut.of_string "pim" = Verif.Sut.Pim_ssm);
  Alcotest.(check bool) "hpim alias" true
    (Verif.Sut.of_string "hpim" = Verif.Sut.Hpim_dm);
  Alcotest.check_raises "near miss rejected"
    (Invalid_argument "Verif.Sut: unknown protocol \"hpimdm\"") (fun () ->
      ignore (Verif.Sut.of_string "hpimdm"))

(* Each row's quiescence window and settle deadline are its session
   config's refresh period and state deadline (the default config):
   [t2] for the soft-state stacks, the holdtime for the PIM family. *)
let test_row_periods () =
  let table = Routing.Table.compute (Topology.Isp.create ()) in
  List.iter
    (fun (p, control_period, t2) ->
      let sut = Verif.Sut.make p table ~source:Topology.Isp.source in
      let label = Verif.Sut.label p in
      Alcotest.(check (float 0.)) (label ^ " control_period") control_period
        sut.Verif.Sut.control_period;
      Alcotest.(check (float 0.)) (label ^ " t2") t2 sut.Verif.Sut.t2)
    [
      (Verif.Sut.Hbh, 100., 550.);
      (Verif.Sut.Reunite, 100., 550.);
      (Verif.Sut.Pim_ssm, 100., 350.);
      (Verif.Sut.Hpim_dm, 100., 350.);
    ]

(* ---- Snapshot round-trip (qcheck) -------------------------------------- *)

(* save -> mutate -> restore -> re-run must be bit-identical (digest
   equality) to running the suffix without the detour, and to a fresh
   session replaying the same history.  Exercised for every protocol
   on both paper topologies. *)
let snapshot_cases (sut : Verif.Sut.t) rng =
  let pick xs = List.nth xs (Stats.Rng.int rng (List.length xs)) in
  let member () = pick sut.Verif.Sut.candidates in
  let prefix = [ Verif.Scenario.Join (member ()) ] in
  let detour =
    [
      Verif.Scenario.Join (member ());
      pick
        [
          Verif.Scenario.Loss_burst 0.3;
          Verif.Scenario.Age;
          Verif.Scenario.Join (member ());
        ];
    ]
  in
  let suffix =
    [ pick [ Verif.Scenario.Join (member ()); Verif.Scenario.Age ] ]
  in
  (prefix, detour, suffix)

let run_events sut events =
  List.iter
    (fun ev ->
      Verif.Scenario.apply sut ev;
      ignore (Verif.Scenario.quiesce sut))
    events

let prop_snapshot_roundtrip name make_sut =
  QCheck.Test.make ~name ~count:4
    QCheck.(int_range 0 10_000)
    (fun seed ->
      List.for_all
        (fun protocol ->
          let rng = Stats.Rng.create seed in
          let sut = make_sut protocol () in
          ignore (Verif.Scenario.quiesce sut);
          let prefix, detour, suffix = snapshot_cases sut rng in
          run_events sut prefix;
          let at_save = Verif.Sut.state_digest sut in
          let restore = sut.Verif.Sut.save () in
          (* mutate: wander off, then rewind *)
          run_events sut detour;
          restore ();
          let after_restore = Verif.Sut.state_digest sut in
          (* re-run the suffix from the restored state *)
          run_events sut suffix;
          let replayed = Verif.Sut.state_digest sut in
          (* a second restore from the same snapshot must work too *)
          restore ();
          run_events sut suffix;
          let replayed_again = Verif.Sut.state_digest sut in
          (* fresh session, same history, no snapshot involved *)
          let fresh = make_sut protocol () in
          ignore (Verif.Scenario.quiesce fresh);
          run_events fresh prefix;
          run_events fresh suffix;
          let fresh_digest = Verif.Sut.state_digest fresh in
          after_restore = at_save
          && replayed = replayed_again
          && replayed = fresh_digest)
        all_protocols)

(* ---- State digests ------------------------------------------------------ *)

let settled protocol members =
  let sut = isp_sut protocol () in
  List.iter sut.Verif.Sut.subscribe members;
  match Verif.Scenario.quiesce sut with
  | Some (_, digest) -> (sut, digest)
  | None -> Alcotest.failf "%s: no quiescence" sut.Verif.Sut.proto

(* The digest quiescence settles on is the settled state's digest: the
   explorer keys its visited set on it without digesting again. *)
let test_quiesce_digest () =
  List.iter
    (fun protocol ->
      let sut, digest = settled protocol [ 22; 27 ] in
      Alcotest.(check string)
        (sut.Verif.Sut.proto ^ ": quiesce digest = state_digest")
        (Verif.Sut.state_digest sut) digest)
    all_protocols

(* The byte encoding must keep apart what the text one kept apart: one
   member more, one mark or one bucket of remaining time. *)
let test_digest_separates () =
  List.iter
    (fun protocol ->
      let sut, digest = settled protocol [ 22 ] in
      let restore = sut.Verif.Sut.save () in
      sut.Verif.Sut.subscribe 27;
      Alcotest.(check bool)
        (sut.Verif.Sut.proto ^ ": one member apart")
        false
        (Verif.Sut.state_digest sut = digest);
      restore ();
      Alcotest.(check string)
        (sut.Verif.Sut.proto ^ ": restored digest")
        digest
        (Verif.Sut.state_digest sut))
    all_protocols;
  let module Ss = Proto.Softstate in
  let dl = { Ss.t1 = 100.0; t2 = 300.0 } in
  let token ~now e =
    let b = Buffer.create 32 in
    Verif.Sut.add_entry b ~now e;
    Buffer.contents b
  in
  let tbl = Ss.Table.create () in
  let e = Ss.Table.add_fresh tbl dl ~now:0.0 7 in
  let plain = token ~now:0.0 e in
  Alcotest.(check string) "within one bucket" plain (token ~now:10.0 e);
  Alcotest.(check bool) "one bucket apart" false (plain = token ~now:25.0 e);
  Alcotest.(check bool) "another node" false
    (plain = token ~now:0.0 (Ss.Table.add_fresh tbl dl ~now:0.0 8));
  ignore (Ss.Table.mark tbl dl ~now:0.0 7);
  Alcotest.(check bool) "one mark apart" false (plain = token ~now:0.0 e)

(* A link failed explicitly and a link held down only by its crashed
   endpoint look alike in the graph, but a restart tells them apart:
   the digest hashes the failed links, so the explorer never merges
   [link-down 10-17; crash 17] with [crash 17]. *)
let test_digest_failed_links () =
  let after events =
    let sut = isp_sut Verif.Sut.Hbh () in
    List.iter (Verif.Scenario.apply sut) events;
    match Verif.Scenario.quiesce sut with
    | Some (_, digest) -> (sut, digest)
    | None -> Alcotest.fail "no quiescence"
  in
  let failed, d_failed =
    after [ Verif.Scenario.Link_down (10, 17); Verif.Scenario.Crash 17 ]
  and crashed, d_crashed = after [ Verif.Scenario.Crash 17 ] in
  Alcotest.(check bool) "digests differ" false (d_failed = d_crashed);
  let link_after_restart sut =
    Verif.Scenario.apply sut (Verif.Scenario.Restart 17);
    Topology.Graph.link_up sut.Verif.Sut.graph 10 17
  in
  Alcotest.(check bool) "failed link stays down" false (link_after_restart failed);
  Alcotest.(check bool) "crash-held link comes back" true
    (link_after_restart crashed)

(* ---- Explorer determinism ---------------------------------------------- *)

let test_explorer_deterministic () =
  let outcome () =
    let config =
      { Verif.Explore.default_config with depth = 3; max_states = 120 }
    in
    Verif.Explore.run ~config (isp_sut Verif.Sut.Hbh ())
  in
  let a = outcome () and b = outcome () in
  Alcotest.(check int) "states" a.Verif.Explore.states b.Verif.Explore.states;
  Alcotest.(check int)
    "transitions" a.Verif.Explore.transitions b.Verif.Explore.transitions;
  Alcotest.(check int)
    "counterexamples"
    (List.length a.Verif.Explore.counterexamples)
    (List.length b.Verif.Explore.counterexamples)

(* ---- Clean protocols pass the oracles ---------------------------------- *)

let test_oracles_clean () =
  List.iter
    (fun protocol ->
      let sut = isp_sut protocol () in
      let _, vs =
        Verif.Scenario.run sut
          [ Verif.Scenario.Join 19; Verif.Scenario.Join 28; Verif.Scenario.Join 33 ]
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: no violations" sut.Verif.Sut.proto)
        0 (List.length vs))
    all_protocols

(* ---- One timeline: the printed plan is the run ------------------------- *)

let pp_directives ppf ds =
  Format.pp_print_string ppf
    (Fault.Plan.to_string
       (Fault.Plan.make
          (List.map (fun (d : Fault.Plan.directive) -> (d.at, d.action)) ds)))

(* The plan [Scenario.run] returns is exactly the [inject] calls it
   made, each at its offset from the run's start — nothing reaches the
   SUT outside [inject], and nothing runs at another instant.  Only
   [Age] injects nothing. *)
let test_apply_is_the_plan () =
  List.iter
    (fun protocol ->
      let sut = isp_sut protocol () in
      let t0 = ref 0.0 and log = ref [] in
      let recording =
        {
          sut with
          Verif.Sut.inject =
            (fun action ->
              log :=
                { Fault.Plan.at = sut.Verif.Sut.now () -. !t0; action } :: !log;
              sut.Verif.Sut.inject action);
        }
      in
      let a = Verif.Scenario.default_alphabet sut ~seed:42 in
      let open Verif.Scenario in
      let m = List.hd a.joins and u, v = List.hd a.links in
      let n = List.hd a.crashes in
      let bursts =
        List.filter
          (function Loss_burst _ | Reorder_burst _ | Dup_burst _ -> true | _ -> false)
          (enabled sut a)
      in
      List.iter
        (fun ev ->
          let name = Format.asprintf "%s: %a" sut.Verif.Sut.proto pp_events [ ev ] in
          t0 := sut.Verif.Sut.now ();
          log := [];
          let plan, _ = run recording [ ev ] in
          Alcotest.(check (testable pp_directives ( = )))
            name (List.rev !log)
            (Fault.Plan.directives plan);
          Alcotest.(check bool)
            (name ^ " is in the plan") (ev <> Age) (!log <> []))
        ([ Join m; Leave m; Link_down (u, v); Link_up (u, v); Crash n; Restart n ]
        @ bursts
        @ [ Partition_cycle (List.hd a.islands); Age ]))
    all_protocols

(* ---- One settle-and-judge step ------------------------------------------ *)

let oracle_checks () =
  List.filter
    (fun (name, _) ->
      String.starts_with ~prefix:"verif.oracle." name
      && String.ends_with ~suffix:".checks" name)
    (Obs.Metrics.snapshot (Obs.Metrics.default ())).Obs.Metrics.counters

(* A judged state is left as it settled — the probe's clock and dedup
   state are rewound — and a state [fresh] rejects is never judged. *)
let test_settle_skips_and_restores () =
  List.iter
    (fun protocol ->
      let sut = isp_sut protocol () in
      let name what = sut.Verif.Sut.proto ^ ": " ^ what in
      List.iter sut.Verif.Sut.subscribe [ 22; 27 ];
      let at = ref None in
      let fresh digest =
        at := Some (digest, sut.Verif.Sut.now ());
        true
      in
      (match (Verif.Scenario.settle ~fresh sut, !at) with
      | Verif.Scenario.Judged _, Some (digest, now) ->
          Alcotest.(check string)
            (name "settled digest") digest (Verif.Sut.state_digest sut);
          Alcotest.(check (float 0.)) (name "settled clock") now
            (sut.Verif.Sut.now ())
      | _ -> Alcotest.fail (name "not judged"));
      let before = oracle_checks () in
      Alcotest.(check bool)
        (name "rejected digest is seen") true
        (Verif.Scenario.settle ~fresh:(fun _ -> false) sut = Verif.Scenario.Seen);
      Alcotest.(check (list (pair string int)))
        (name "no oracle ran") before (oracle_checks ()))
    all_protocols

(* A protocol's own oracles live in its registry row, so a full check
   on a settled session counts exactly the generic oracles plus that
   row's: HBH's pair, HPIM-DM's triple, nothing else. *)
let test_row_oracles () =
  let generic =
    [ "no_blackhole"; "no_duplicate"; "no_misdelivery"; "tree_loop_free";
      "tree_span" ]
  in
  List.iter
    (fun protocol ->
      let own =
        match protocol with
        | Verif.Sut.Hbh -> [ "hbh_first_join"; "hbh_branch_on_path" ]
        | Verif.Sut.Hpim_dm ->
            [ "hpim_assert_unique"; "hpim_assert_losers";
              "hpim_nbr_consistency" ]
        | Verif.Sut.Reunite | Verif.Sut.Pim_ssm -> []
      in
      let counted =
        Obs.Metrics.with_registry (Obs.Metrics.create ()) (fun () ->
            let sut = isp_sut protocol () in
            List.iter sut.Verif.Sut.subscribe [ 19; 28; 33 ];
            ignore (Verif.Scenario.quiesce sut);
            ignore (Verif.Oracle.check sut);
            List.map fst (oracle_checks ()))
      in
      Alcotest.(check (list string))
        (Verif.Sut.name protocol ^ ": oracles counted")
        (List.sort compare
           (List.map (Printf.sprintf "verif.oracle.%s.checks") (generic @ own)))
        (List.sort compare counted))
    all_protocols

let violates oracle vs =
  List.exists (fun (v : Verif.Oracle.violation) -> v.Verif.Oracle.oracle = oracle) vs

let violates_one_of (cx : Verif.Explore.counterexample) vs =
  List.exists
    (fun (v : Verif.Oracle.violation) -> violates v.Verif.Oracle.oracle vs)
    cx.Verif.Explore.violations

(* The explorer and [Scenario.run] judge through the same step, so each
   verdict the search reports holds on a fresh SUT's timeline: a
   counterexample path violates again, and an oscillation path settles
   clean at every point but its last, which gets no verdict.  The
   seeds are the sweep's HPIM-DM counterexamples and its REUNITE
   oscillation. *)
let test_explorer_agrees_with_timeline () =
  let cxs = ref 0 and oscillations = ref 0 in
  List.iter
    (fun (protocol, seed) ->
      let make_sut = isp_sut protocol in
      let config =
        { Verif.Explore.default_config with depth = 4; max_states = 100; seed }
      in
      let o = Verif.Explore.run ~config (make_sut ()) in
      let name what path =
        Format.asprintf "%s seed %d %a: %s" (Verif.Sut.name protocol) seed
          Verif.Scenario.pp_events path what
      in
      List.iter
        (fun (cx : Verif.Explore.counterexample) ->
          incr cxs;
          let _, vs = Verif.Scenario.run (make_sut ()) cx.Verif.Explore.events in
          Alcotest.(check bool)
            (name "violates on the timeline" cx.Verif.Explore.events)
            true (violates_one_of cx vs))
        o.Verif.Explore.counterexamples;
      List.iter
        (fun path ->
          incr oscillations;
          let sut = make_sut () in
          let initial = Verif.Scenario.settle sut in
          let points =
            initial
            :: List.map
                 (fun ev ->
                   Verif.Scenario.apply sut ev;
                   Verif.Scenario.settle sut)
                 path
          in
          let expected =
            List.mapi
              (fun i _ ->
                if i = List.length path then Verif.Scenario.Unsettled
                else Verif.Scenario.Judged [])
              points
          in
          Alcotest.(check bool)
            (name "unsettled only at its end" path)
            true (points = expected);
          let _, vs = Verif.Scenario.run (make_sut ()) path in
          Alcotest.(check int) (name "no verdict" path) 0 (List.length vs))
        o.Verif.Explore.oscillations)
    [
      (Verif.Sut.Hpim_dm, 2);
      (Verif.Sut.Hpim_dm, 3);
      (Verif.Sut.Hpim_dm, 24);
      (Verif.Sut.Hpim_dm, 33);
      (Verif.Sut.Reunite, 8);
    ];
  Alcotest.(check bool) "counterexamples compared" true (!cxs > 0);
  Alcotest.(check bool) "oscillations compared" true (!oscillations > 0)

(* ---- Runtime monitors: healthy runs never fire -------------------------- *)

(* The monitor's debounce claim, as a property: membership churn is
   the healthy case — leaves decay over t2, joins fill in over a
   control period — so probes at the default t2 cadence may observe a
   transient at most twice in a row and must never confirm.  Any
   confirmed violation on a churn-only run is a monitor false
   positive (or a real protocol bug), both failures. *)
let prop_monitor_healthy_never_fires =
  QCheck.Test.make ~name:"monitor: churn-only runs never confirm a violation"
    ~count:5
    QCheck.(int_range 0 10_000)
    (fun seed ->
      List.for_all
        (fun protocol ->
          List.for_all
            (fun make_sut ->
              let sut : Verif.Sut.t = make_sut protocol () in
              ignore (Verif.Scenario.quiesce sut);
              let mon = Verif.Monitor.attach sut in
              let rng = Stats.Rng.create seed in
              let pick xs = List.nth xs (Stats.Rng.int rng (List.length xs)) in
              for _ = 1 to 4 do
                let ev =
                  match Stats.Rng.int rng 3 with
                  | 0 -> Verif.Scenario.Join (pick sut.Verif.Sut.candidates)
                  | 1 -> Verif.Scenario.Leave (pick sut.Verif.Sut.candidates)
                  | _ -> Verif.Scenario.Age
                in
                Verif.Scenario.apply sut ev;
                ignore (Verif.Scenario.quiesce sut)
              done;
              Verif.Monitor.stop mon;
              if Verif.Monitor.checks mon = 0 then
                QCheck.Test.fail_report "monitor never probed";
              if Verif.Monitor.violation_count mon > 0 then
                QCheck.Test.fail_reportf "%s: healthy run confirmed %d violation(s)"
                  sut.Verif.Sut.proto
                  (Verif.Monitor.violation_count mon);
              true)
            [ (fun p () -> isp_sut p ()); (fun p () -> rand50_sut p ~seed:7 ()) ])
        all_protocols)

(* ---- Golden counterexample fixtures ------------------------------------ *)

let read_file path =
  (* dune runtest runs with cwd = test dir; dune exec from the root *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_mark_decay () =
  let plan = Fault.Plan.of_string (read_file "golden/hbh-mark-decay.plan") in
  (* text form round-trips *)
  let reparsed = Fault.Plan.of_string (Fault.Plan.to_string plan) in
  Alcotest.(check int)
    "round-trip directive count"
    (List.length (Fault.Plan.directives plan))
    (List.length (Fault.Plan.directives reparsed));
  (* the plan is clean here; with marks that never lapse it blackholes
     a member (test/mutants/mark_decay.ml, run on the mark-decay
     mutant): the fixture is a regression tripwire *)
  let vs = Verif.Scenario.replay_plan (isp_sut Verif.Sut.Hbh ()) plan in
  Alcotest.(check int) "clean replay passes" 0 (List.length vs)

(* HPIM-DM's assert defect, one fixture per shape the explorer finds
   at seeds 2, 3/33 and 24.  Each replay violates [hpim_assert_unique]
   today; these are tripwires that the fix flips to clean, as the
   mark-decay fixture's clean replay does. *)
let hpim_goldens =
  [ "hpim-dm-source-links.plan"; "hpim-dm-source-crash.plan";
    "hpim-dm-crash-13-16.plan" ]

let test_golden_hpim_assert file () =
  let plan = Fault.Plan.of_string (read_file ("golden/" ^ file)) in
  let start = Unix.gettimeofday () in
  let vs = Verif.Scenario.replay_plan (isp_sut Verif.Sut.Hpim_dm ()) plan in
  let elapsed = Unix.gettimeofday () -. start in
  Alcotest.(check bool)
    "hpim_assert_unique violated" true
    (violates "hpim_assert_unique" vs);
  Alcotest.(check bool)
    (Printf.sprintf "replays in under 5 s (took %.2f s)" elapsed)
    true (elapsed < 5.0)

(* The crashed-router regression: [crash 17], then both of its router
   links restored while it is still down.  A restored link of a
   crashed router stays down until the router restarts, so all four
   stacks route around 17 and keep member 28 served.  The explorer
   reaches this shape only past its default state cap, so this replay
   is the gate every test run sees. *)
let test_golden_crashed_router () =
  let plan =
    Fault.Plan.of_string (read_file "golden/hbh-crashed-router.plan")
  in
  let start = Unix.gettimeofday () in
  List.iter
    (fun protocol ->
      let vs = Verif.Scenario.replay_plan (isp_sut protocol ()) plan in
      Alcotest.(check int)
        (Verif.Sut.name protocol ^ " replays clean") 0 (List.length vs))
    all_protocols;
  let elapsed = Unix.gettimeofday () -. start in
  Alcotest.(check bool)
    (Printf.sprintf "replays in under 5 s (took %.2f s)" elapsed)
    true (elapsed < 5.0)

(* The run settles the initial state before the first event, as the
   explorer does: [crash 0] alone violates on that timeline, where a
   run that skipped the settle needed a filler event to buy the time.
   It rides on the HPIM-DM assert defect, so the fix flips it with the
   goldens above. *)
let test_initial_settle () =
  let _, vs =
    Verif.Scenario.run (isp_sut Verif.Sut.Hpim_dm ()) [ Verif.Scenario.Crash 0 ]
  in
  Alcotest.(check bool)
    "hpim_assert_unique violated" true
    (violates "hpim_assert_unique" vs)

(* After [crash 13] the state never settles (the explorer files such
   a path as an oscillation), so the run gives it no verdict. *)
let test_unsettled_no_verdict () =
  let _, vs =
    Verif.Scenario.run (isp_sut Verif.Sut.Hpim_dm ())
      [ Verif.Scenario.Crash 16; Verif.Scenario.Crash 13 ]
  in
  Alcotest.(check int) "no violations" 0 (List.length vs)

(* ---- Shrinking on the clean tree ---------------------------------------- *)

(* The HPIM-DM assert defect gives the shrinker a real violation
   without a planted bug: padded with stimulus that does not cause it,
   [crash 0] alone must come back, the same at every [jobs], and its
   recorded plan must replay.  It rides on the defect, so the fix
   flips it with the goldens above. *)
let test_shrink_padded_hpim () =
  let make_sut = isp_sut Verif.Sut.Hpim_dm in
  let member = List.hd Topology.Isp.receiver_hosts in
  let padded =
    Verif.Scenario.
      [ Age; Join member; Crash 0; Age; Leave member; Age ]
  in
  let _, vs = Verif.Scenario.run (make_sut ()) padded in
  Alcotest.(check bool) "padded path violates" true
    (violates "hpim_assert_unique" vs);
  let cx = { Verif.Explore.events = padded; violations = vs } in
  List.iter
    (fun jobs ->
      let minimal = Verif.Shrink.minimize ~jobs ~make_sut cx in
      Alcotest.(check string)
        (Printf.sprintf "jobs %d: shrunk to [crash 0]" jobs)
        "[crash 0]"
        (Format.asprintf "%a" Verif.Scenario.pp_events minimal);
      let plan, _ = Verif.Scenario.run (make_sut ()) minimal in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d: minimized plan replays" jobs)
        true
        (violates_one_of cx (Verif.Scenario.replay_plan (make_sut ()) plan)))
    [ 1; 2 ]

(* ---- HPIM-DM's tunnelled RPF walk --------------------------------------- *)

(* A capability-disabled router runs no agent, so an HPIM-DM router
   whose unicast path to the source crosses one expresses interest to
   the first capable hop beyond it, and still advertises routing's
   distance to the source as its metric.  The references here are
   computed from the routing table's public queries, independently of
   the session's own walk. *)
let first_capable_hop graph table ~source n =
  let rec walk v =
    if v = source || Topology.Graph.multicast_router graph v then Some v
    else
      match Routing.Table.next_hop table v ~dest:source with
      | Some w -> walk w
      | None -> None
  in
  match Routing.Table.next_hop table n ~dest:source with
  | Some v -> walk v
  | None -> None

(* Every router's metric is its unicast distance to the source, and
   every router expressing interest does so to its first capable hop.
   Returns how many of those parents sit beyond a disabled router. *)
let check_upstream session graph table ~source step =
  let view = Hpim.Dm.view session in
  let tunnelled = ref 0 in
  List.iter
    (fun n ->
      let reference =
        if Routing.Table.reachable table n source then
          Routing.Table.distance table n source
        else max_int
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: metric of %d" step n)
        reference (Hpim.Dm.metric session n);
      match List.assoc_opt n view with
      | Some { Hpim.Dm.vw_expressed = Some (p, true); _ } ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s: parent of %d" step n)
            (first_capable_hop graph table ~source n)
            (Some p);
          if Routing.Table.next_hop table n ~dest:source <> Some p then
            incr tunnelled
      | Some _ | None -> ())
    (Topology.Graph.routers graph);
  !tunnelled

(* Run hello periods until HPIM-DM's inspection view and pending
   reliable slots hold still over two windows, within 4 holdtimes: the
   verifier's quiescence rule over the state its digest reads. *)
let hpim_settle session step =
  let cfg = Hpim.Dm.config session in
  let now () = Eventsim.Engine.now (Hpim.Dm.engine session) in
  let state () =
    let b = Buffer.create 64 in
    Hpim.Dm.pending_digest session b;
    (Hpim.Dm.view session, Buffer.contents b)
  in
  let start = now () in
  let rec go stable prev =
    Hpim.Dm.run_for session cfg.Hpim.Dm.hello_period;
    let s = state () in
    let stable = if s = prev then stable + 1 else 0 in
    if stable < 2 then
      if now () -. start > 4.0 *. cfg.Hpim.Dm.holdtime then
        Alcotest.failf "%s: no quiescence" step
      else go stable s
  in
  go 0 (state ())

(* Members attached to the disabled router stay out: their first
   capable hop is not adjacent to them, which
   [test_hpim_member_behind_disabled] covers on its own.  The checks
   read the session's own view, so the test drives the session
   itself. *)
let test_hpim_tunnelled_rpf ~graph ~source ~disabled ~receivers ~link () =
  Topology.Graph.set_multicast_capable graph disabled false;
  let table = Routing.Table.compute graph in
  let session = Hpim.Dm.create table ~source in
  List.iter
    (fun h ->
      if Topology.Graph.router_of_host graph h <> disabled then
        Hpim.Dm.subscribe session h)
    receivers;
  let net = Hpim.Dm.network session in
  let settle step =
    hpim_settle session step;
    check_upstream session graph table ~source step
  in
  let tunnelled = settle "converged" in
  Alcotest.(check bool) "some parent is tunnelled to" true (tunnelled > 0);
  let snap = Hpim.Dm.snapshot session in
  let u, v = link in
  for round = 1 to 2 do
    Netsim.Network.set_link_up net u v false;
    ignore (Netsim.Network.reconverge net : int);
    ignore (settle (Printf.sprintf "link %d-%d down (%d)" u v round) : int);
    Hpim.Dm.restore session snap;
    ignore (settle (Printf.sprintf "restored (%d)" round) : int)
  done

(* A member host behind a disabled router has a parent that is not
   its neighbor: the parent reaches it by unicast, its hellos as its
   interest does.  Hosts 29, 30 and 35 sit on routers 11, 12 and 17
   of ISP, and router 12 is disabled. *)
let test_hpim_member_behind_disabled () =
  let graph = Topology.Isp.create () in
  Topology.Graph.set_multicast_capable graph 12 false;
  let session =
    Hpim.Dm.create (Routing.Table.compute graph) ~source:Topology.Isp.source
  in
  let members = [ 29; 30; 35 ] in
  List.iter (Hpim.Dm.subscribe session) members;
  Hpim.Dm.converge session;
  let d = Hpim.Dm.probe session in
  Alcotest.(check (list int))
    "every member hears the probe" members
    (List.sort compare (Mcast.Distribution.receivers d));
  Alcotest.(check int)
    "no duplicate deliveries" 0
    (Mcast.Distribution.duplicate_deliveries d)

(* A router that re-parents away from a parent beyond a disabled router
   retracts its interest there: the old parent has no hello record
   (it is not adjacent), so liveness cannot be what gates the
   NoInterest.  On ISP with router 12 disabled, link 6-12 failing
   moves router 6's parent from 0 (through 12) to 13; router 0 must
   then drop 6 from its downstream entries and stop sending it
   copies. *)
let test_hpim_retracts_tunnelled_parent () =
  let graph = Topology.Isp.create () in
  Topology.Graph.set_multicast_capable graph 12 false;
  let session =
    Hpim.Dm.create (Routing.Table.compute graph) ~source:Topology.Isp.source
  in
  let members =
    List.filter
      (fun h -> Topology.Graph.router_of_host graph h <> 12)
      Topology.Isp.receiver_hosts
  in
  List.iter (Hpim.Dm.subscribe session) members;
  Hpim.Dm.converge session;
  let parent n =
    match List.assoc_opt n (Hpim.Dm.view session) with
    | Some { Hpim.Dm.vw_expressed = Some (p, true); _ } -> Some p
    | Some _ | None -> None
  in
  let down n =
    match List.assoc_opt n (Hpim.Dm.view session) with
    | Some v -> v.Hpim.Dm.vw_down
    | None -> []
  in
  Alcotest.(check (option int)) "6 parents on 0 through 12" (Some 0) (parent 6);
  Alcotest.(check bool) "0 holds 6 downstream" true (List.mem 6 (down 0));
  let net = Hpim.Dm.network session in
  Netsim.Network.set_link_up net 6 12 false;
  ignore (Netsim.Network.reconverge net : int);
  Hpim.Dm.run_for session 3000.0;
  Alcotest.(check (option int)) "6 re-parents on 13" (Some 13) (parent 6);
  Alcotest.(check (list int)) "0 dropped 6" [ 5; 11; 13; 17 ] (down 0);
  let d = Hpim.Dm.probe session in
  Alcotest.(check (list int))
    "every member hears the probe" members
    (List.sort compare (Mcast.Distribution.receivers d));
  Alcotest.(check int)
    "no duplicate deliveries" 0
    (Mcast.Distribution.duplicate_deliveries d)

(* ---- Plan text: range checks and robustness ----------------------------- *)

let rejects text =
  match Fault.Plan.of_string text with
  | _ -> false
  | exception Invalid_argument _ -> true

(* NaN passes every [<]/[>] comparison, and [1e400] reads as infinity:
   each of these used to parse. *)
let test_plan_rejects_non_finite () =
  List.iter
    (fun text -> Alcotest.(check bool) text true (rejects text))
    [
      "@nan crash 1";
      "@inf crash 1";
      "@-inf crash 1";
      "@1e400 crash 2";
      "@0 loss-all nan";
      "@0 jitter nan";
      "@0 jitter inf";
      "@0 duplicate nan";
      "@0 reorder nan 0.5";
      "@0 reorder inf 0.5";
      "@0 reorder 1 nan";
      "@0 burst-loss nan 3";
      "@0 drop-control nan";
    ];
  Alcotest.(check bool)
    "make rejects a NaN time" true
    (match Fault.Plan.make [ (Float.nan, Fault.Plan.Reconverge) ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "finite values still parse" false
    (rejects "@0 jitter 2.5\n@10 reorder 3 0.5\n@20 loss-all 1")

(* Plan text built from the DSL's keywords, ints, floats, non-finite
   spellings, empty fields, [1,,2] islands and junk.  Most directives
   have the right shape with a hostile value here and there, so a fair
   share of the texts parse; the rest are free-form. *)
let gen_plan_text =
  let open QCheck.Gen in
  let hostile =
    oneofl
      [ "nan"; "-nan"; "inf"; "-inf"; "infinity"; "1e400"; ""; "1,,2"; ",3";
        "a"; "x,y"; "#"; "1.5.2"; "-1"; "0x10"; "-0" ]
  in
  let int_f = map string_of_int (int_range 0 40) in
  let float_f =
    oneof
      [
        map (Printf.sprintf "%g") (float_range 0.0 1.0);
        map (Printf.sprintf "%.17g") (float_range 0.0 1.0);
        map string_of_int (int_range 0 3);
      ]
  in
  let island_f =
    map (fun l -> String.concat "," (List.map string_of_int l))
      (list_size (int_range 1 3) (int_range 0 40))
  in
  let name_f = oneofl [ "left"; "p1"; "a,b"; "" ] in
  let slot g = frequency [ (9, g); (1, hostile) ] in
  let shaped =
    oneof
      (List.map
         (fun (kw, slots) ->
           map (fun args -> kw :: args) (flatten_l (List.map slot slots)))
         [
           ("loss-all", [ float_f ]);
           ("link-down", [ int_f; int_f ]);
           ("link-up", [ int_f; int_f ]);
           ("crash", [ int_f ]);
           ("restart", [ int_f ]);
           ("partition-named", [ name_f; island_f ]);
           ("heal-named", [ name_f ]);
           ("jitter", [ float_f ]);
           ("reorder", [ float_f; float_f ]);
           ("duplicate", [ float_f ]);
           ("burst-loss", [ float_f; int_f ]);
           ("drop-control", [ float_f ]);
           ("reconverge", []);
           ("join", [ int_f ]);
           ("leave", [ int_f ]);
         ])
  in
  let free =
    map2 (fun kw args -> kw :: args)
      (oneofl [ "crash"; "loss"; "reorder"; "LOSS"; "crash2"; "" ])
      (list_size (int_bound 4) (oneof [ int_f; float_f; hostile ]))
  in
  let at = frequency [ (6, float_f); (2, map string_of_int nat); (1, hostile) ] in
  let directive =
    map2
      (fun at words -> String.concat " " (("@" ^ at) :: words))
      at
      (frequency [ (4, shaped); (1, free) ])
  in
  let line =
    frequency
      [
        (10, directive);
        (1, oneofl [ ""; "# comment"; "@"; "@ crash 1"; "crash 1"; "@1" ]);
      ]
  in
  map (String.concat "\n") (list_size (int_range 1 4) line)

let prop_plan_text_robust =
  QCheck.Test.make ~name:"plan text: a plan or Invalid_argument, never else"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_plan_text)
    (fun text ->
      match Fault.Plan.of_string text with
      | exception Invalid_argument _ -> true
      | plan ->
          let ds = Fault.Plan.directives plan in
          List.for_all
            (fun (d : Fault.Plan.directive) ->
              Float.is_finite d.at && d.at >= 0.0)
            ds
          && Fault.Plan.directives
               (Fault.Plan.of_string (Fault.Plan.to_string plan))
             = ds)

let () =
  Alcotest.run "verif"
    [
      ( "snapshot",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_snapshot_roundtrip
              "snapshot save/mutate/restore/re-run = fresh run (ISP)"
              (fun p () -> isp_sut p ());
            prop_snapshot_roundtrip
              "snapshot save/mutate/restore/re-run = fresh run (rand50)"
              (fun p () -> rand50_sut p ~seed:7 ());
          ] );
      ( "digest",
        [
          Alcotest.test_case "quiesce returns the settled digest" `Quick
            test_quiesce_digest;
          Alcotest.test_case "one member, mark or bucket apart" `Quick
            test_digest_separates;
          Alcotest.test_case "a failed link is not a crashed endpoint" `Quick
            test_digest_failed_links;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names and aliases" `Quick test_registry_names;
          Alcotest.test_case "periods follow the session's config" `Quick
            test_row_periods;
          Alcotest.test_case "each protocol runs only its row's oracles"
            `Quick test_row_oracles;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "deterministic in seed" `Quick
            test_explorer_deterministic;
          Alcotest.test_case "clean protocols pass all oracles" `Quick
            test_oracles_clean;
          Alcotest.test_case "apply runs exactly the printed plan" `Quick
            test_apply_is_the_plan;
          Alcotest.test_case "settle skips seen states and rewinds the probe"
            `Quick test_settle_skips_and_restores;
          Alcotest.test_case "explorer verdicts hold on the timeline" `Quick
            test_explorer_agrees_with_timeline;
        ] );
      ( "monitor",
        List.map QCheck_alcotest.to_alcotest
          [ prop_monitor_healthy_never_fires ] );
      ( "golden",
        [
          Alcotest.test_case "mark-decay fixture loads and replays" `Quick
            test_golden_mark_decay;
        ]
        @ List.map
            (fun file ->
              Alcotest.test_case (file ^ " violates hpim_assert_unique")
                `Quick (test_golden_hpim_assert file))
            hpim_goldens
        @ [
            Alcotest.test_case "crashed-router fixture replays clean"
              `Quick test_golden_crashed_router;
            Alcotest.test_case "the initial state settles first" `Quick
              test_initial_settle;
            Alcotest.test_case "an unsettled point gets no verdict" `Quick
              test_unsettled_no_verdict;
          ] );
      ( "shrinking",
        [
          Alcotest.test_case "padded HPIM-DM path shrinks to its crash"
            `Quick test_shrink_padded_hpim;
        ] );
      ( "hpim-rpf",
        [
          Alcotest.test_case "ISP: core 12 disabled, link 6-12 fails" `Quick
            (test_hpim_tunnelled_rpf ~graph:(Topology.Isp.create ())
               ~source:Topology.Isp.source ~disabled:12
               ~receivers:Topology.Isp.receiver_hosts ~link:(6, 12));
          Alcotest.test_case "RAND50: router 16 disabled, link 1-16 fails"
            `Quick
            (let cfg = Experiments.Common.rand50_config ~seed:7 in
             test_hpim_tunnelled_rpf ~graph:cfg.Experiments.Common.graph
               ~source:cfg.Experiments.Common.source ~disabled:16
               ~receivers:cfg.Experiments.Common.candidates ~link:(1, 16));
          Alcotest.test_case "ISP: members behind disabled core 12" `Quick
            test_hpim_member_behind_disabled;
          Alcotest.test_case "ISP: 6 retracts from tunnelled parent 0" `Quick
            test_hpim_retracts_tunnelled_parent;
          Alcotest.test_case "ISP: core 12 disabled, link 0-13 fails" `Quick
            (test_hpim_tunnelled_rpf ~graph:(Topology.Isp.create ())
               ~source:Topology.Isp.source ~disabled:12
               ~receivers:Topology.Isp.receiver_hosts ~link:(0, 13));
        ] );
      ( "plan",
        Alcotest.test_case "non-finite values rejected" `Quick
          test_plan_rejects_non_finite
        :: List.map QCheck_alcotest.to_alcotest [ prop_plan_text_robust ] );
    ]
