(* The Section 2.3 pathologies, step by step, on the paper's own
   micro-topologies — with the event-driven protocols, reached through
   the protocol registry ([Verif.Sut]), actually exchanging
   join/tree/fusion messages.

     dune exec examples/asymmetric_demo.exe
*)

module Det = Experiments.Scenarios.Detour
module Dup = Experiments.Scenarios.Duplication

let pp_path = Routing.Path.pp

let () =
  (* ---------- Figure 2: the detour ---------- *)
  Format.printf "=== Figure 2: asymmetric routes detour REUNITE ===@.@.";
  let tbl = Det.table () in
  let g = Routing.Table.graph tbl in
  Format.printf "Unicast routes (S=0, R1..R4=1..4, r1=5, r2=6):@.";
  List.iter
    (fun (a, b) ->
      Format.printf "  %d -> %d: %a (delay %.0f)@." a b pp_path
        (Routing.Table.path tbl a b)
        (Routing.Path.delay g (Routing.Table.path tbl a b)))
    [ (0, Det.r1); (Det.r1, 0); (0, Det.r2); (Det.r2, 0) ];

  Format.printf "@.REUNITE, joins r1 then r2 (live protocol):@.";
  let sut = Verif.Sut.make Verif.Sut.Reunite tbl ~source:Det.source in
  sut.subscribe Det.r1;
  sut.run_for 300.0;
  sut.subscribe Det.r2;
  sut.converge ();
  let d = Live.probe sut in
  Format.printf "  r2 is served with delay %.0f over the detour (optimal: 2)@."
    (Option.value ~default:nan (Mcast.Distribution.delay d Det.r2));
  Format.printf "  the tree forks at: %a@."
    Format.(pp_print_list ~pp_sep:(fun p () -> pp_print_string p " ") pp_print_int)
    (Live.forks d);

  Format.printf "@.r1 departs; the marked-tree teardown reconverges r2:@.";
  sut.unsubscribe Det.r1;
  sut.run_for 2000.0;
  let d = Live.probe sut in
  Format.printf "  r2 now served with delay %.0f — Figure 2(d)@."
    (Option.value ~default:nan (Mcast.Distribution.delay d Det.r2));

  Format.printf "@.HBH on the same join sequence:@.";
  let sut = Verif.Sut.make Verif.Sut.Hbh tbl ~source:Det.source in
  sut.subscribe Det.r1;
  sut.run_for 300.0;
  sut.subscribe Det.r2;
  sut.converge ();
  let d = Live.probe sut in
  Format.printf "  r2 served with delay %.0f from the start (shortest path)@."
    (Option.value ~default:nan (Mcast.Distribution.delay d Det.r2));

  (* ---------- Figure 3 / 5: duplication and fusion ---------- *)
  Format.printf "@.=== Figure 3: REUNITE duplicates on a shared link ===@.@.";
  let tbl = Dup.table () in
  let u, v = Dup.shared_link in
  let sut = Verif.Sut.make Verif.Sut.Reunite tbl ~source:Dup.source in
  sut.subscribe Dup.r1;
  sut.run_for 300.0;
  sut.subscribe Dup.r2;
  sut.converge ();
  let d = Live.probe sut in
  Format.printf "  REUNITE: %d copies of each packet on link R1-R6, cost %d@."
    (Mcast.Distribution.copies d u v)
    (Mcast.Distribution.cost d);

  let sut = Verif.Sut.make Verif.Sut.Hbh tbl ~source:Dup.source in
  sut.subscribe Dup.r1;
  sut.subscribe Dup.r2;
  sut.converge ();
  let d = Live.probe sut in
  Format.printf
    "  HBH:     %d copy on R1-R6 (the fusion message moved the branch to R6), cost %d@."
    (Mcast.Distribution.copies d u v)
    (Mcast.Distribution.cost d);
  Format.printf "  HBH's tree forks at: %a@."
    Format.(pp_print_list ~pp_sep:(fun p () -> pp_print_string p " ") pp_print_int)
    (Live.forks d);

  (* ---------- How common is asymmetry? ---------- *)
  Format.printf "@.=== Route asymmetry on the evaluation topologies ===@.@.";
  let measure label graph =
    let rng = Stats.Rng.create 1 in
    Workload.Scenario.randomize rng graph;
    let t = Routing.Table.compute graph in
    let r = Routing.Asymmetry.measure t in
    Format.printf "  %-24s %4.0f%% asymmetric pairs, mean delay gap %.2f@."
      label
      (100.0 *. r.asymmetric_fraction)
      r.mean_delay_gap
  in
  measure "ISP topology" (Topology.Isp.create ());
  measure "50-node random"
    (Topology.Generators.random_connected (Stats.Rng.create 42) ~n:50
       ~avg_degree:8.6);
  Format.printf
    "@.(Paxson measured ~50%% city-level asymmetry in the real Internet.)@."
