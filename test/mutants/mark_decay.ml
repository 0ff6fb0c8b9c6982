(* The find-and-minimize pipeline against a planted bug, run on the
   mark-decay mutant (HBH fusion marks never lapse) by
   scripts/mutants.sh from the repository root.  On the unpatched
   program there is no bug to find and this exits 1.

   The explorer must find the bug within depth 4 over a real state
   space, each counterexample must reproduce on the one runner's
   timeline, shrink to at most six events and replay from its recorded
   plan, and the committed fixture must blackhole a member. *)

let isp_sut () =
  let graph = Topology.Isp.create () in
  Verif.Sut.make ~candidates:Topology.Isp.receiver_hosts Verif.Sut.Hbh
    (Routing.Table.compute graph)
    ~source:Topology.Isp.source

let violates oracle vs =
  List.exists (fun (v : Verif.Oracle.violation) -> v.Verif.Oracle.oracle = oracle) vs

let violates_one_of (cx : Verif.Explore.counterexample) vs =
  List.exists
    (fun (v : Verif.Oracle.violation) -> violates v.Verif.Oracle.oracle vs)
    cx.Verif.Explore.violations

let test_found_and_minimized () =
  let config = { Verif.Explore.default_config with depth = 4 } in
  let o = Verif.Explore.run ~config (isp_sut ()) in
  Alcotest.(check bool)
    "explores >= 1000 distinct states" true
    (o.Verif.Explore.states >= 1000);
  Alcotest.(check bool)
    "counterexample found" true
    (o.Verif.Explore.counterexamples <> []);
  List.iteri
    (fun i (cx : Verif.Explore.counterexample) ->
      let name what =
        Format.asprintf "cx %d %a: %s" (i + 1) Verif.Scenario.pp_events
          cx.Verif.Explore.events what
      in
      let _, vs = Verif.Scenario.run (isp_sut ()) cx.Verif.Explore.events in
      Alcotest.(check bool) (name "raw path reproduces") true
        (violates_one_of cx vs);
      let minimal = Verif.Shrink.minimize ~make_sut:isp_sut cx in
      Alcotest.(check bool)
        (Format.asprintf "%s (got %a)" (name "shrunk to <= 6 events")
           Verif.Scenario.pp_events minimal)
        true
        (List.length minimal <= 6);
      let plan, _ = Verif.Scenario.run (isp_sut ()) minimal in
      Alcotest.(check bool)
        (Format.asprintf "%s: %s" (name "minimized plan replays")
           (Fault.Plan.to_string plan))
        true
        (violates_one_of cx (Verif.Scenario.replay_plan (isp_sut ()) plan)))
    o.Verif.Explore.counterexamples

let test_fixture_violates () =
  let ic = open_in "test/golden/hbh-mark-decay.plan" in
  let plan = Fault.Plan.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let vs = Verif.Scenario.replay_plan (isp_sut ()) plan in
  Alcotest.(check bool) "buggy replay violates" true (vs <> []);
  Alcotest.(check bool) "blackhole among violations" true
    (violates "no_blackhole" vs)

let () =
  Alcotest.run "mark-decay"
    [
      ( "mutant",
        [
          Alcotest.test_case "injected mark-decay bug found and minimized"
            `Quick test_found_and_minimized;
          Alcotest.test_case "fixture's buggy replay violates" `Quick
            test_fixture_violates;
        ] );
    ]
