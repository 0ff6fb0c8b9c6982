(* Property-based cross-protocol invariants, exercised on randomized
   topologies (random-connected, Waxman, grid) with randomized
   asymmetric costs and receiver sets — the deep safety net under the
   figure sweeps. *)

let count = 60

(* A random scenario on a random topology family. *)
let scenario_of_seed seed =
  let rng = Stats.Rng.create seed in
  let g =
    match seed mod 3 with
    | 0 ->
        let n = 8 + Stats.Rng.int rng 20 in
        Topology.Generators.random_connected rng ~n ~avg_degree:3.0
    | 1 ->
        let n = 8 + Stats.Rng.int rng 20 in
        Topology.Generators.waxman rng ~n
    | _ ->
        Topology.Generators.grid
          ~rows:(2 + Stats.Rng.int rng 3)
          ~cols:(2 + Stats.Rng.int rng 4)
          ()
  in
  Topology.Graph.randomize_costs g rng ~lo:1 ~hi:10;
  let table = Routing.Table.compute g in
  let hosts = Topology.Graph.hosts g in
  let source = List.nth hosts (Stats.Rng.int rng (List.length hosts)) in
  let candidates = List.filter (fun h -> h <> source) hosts in
  let n = 1 + Stats.Rng.int rng (min 10 (List.length candidates)) in
  let receivers = Workload.Scenario.pick_receivers rng ~candidates ~n in
  (g, table, source, receivers)

let make name f =
  QCheck.Test.make ~name ~count QCheck.(int_range 0 100_000) (fun seed ->
      let g, table, source, receivers = scenario_of_seed seed in
      f g table source receivers)

let prop_hbh_one_copy_per_link =
  make "HBH: exactly one copy per used link (any topology)"
    (fun _ table source receivers ->
      let d = Hbh.Analytic.build table ~source ~receivers in
      Mcast.Distribution.max_stress d = 1
      && Mcast.Distribution.cost d = Mcast.Distribution.links_used d)

let prop_hbh_shortest_delay =
  make "HBH: every receiver at shortest-path delay" (fun g table source receivers ->
      let d = Hbh.Analytic.build table ~source ~receivers in
      List.for_all
        (fun r ->
          match Mcast.Distribution.delay d r with
          | Some delay ->
              Float.abs
                (delay -. Routing.Path.delay g (Routing.Table.path table source r))
              < 1e-9
          | None -> false)
        receivers)

let prop_hbh_dominates_all_delays =
  make "HBH: no protocol beats its average delay"
    (fun _ table source receivers ->
      let hbh =
        Mcast.Distribution.avg_delay (Hbh.Analytic.build table ~source ~receivers)
      in
      let others =
        [
          Mcast.Distribution.avg_delay
            (Pim.Pim_ss.build table ~source ~receivers);
          Mcast.Distribution.avg_delay
            (Reunite.Analytic.build table ~source ~receivers);
        ]
      in
      List.for_all (fun o -> hbh <= o +. 1e-9) others)

let prop_hbh_constrained_consistent =
  make "HBH constrained: cost >= ideal, delays identical"
    (fun g table source receivers ->
      (* Random capability pattern. *)
      let rng = Stats.Rng.create (source + 7919) in
      List.iter
        (fun r ->
          Topology.Graph.set_multicast_capable g r (Stats.Rng.int rng 2 = 1))
        (Topology.Graph.routers g);
      let ideal = Hbh.Analytic.build table ~source ~receivers in
      let constrained = Hbh.Analytic.build_constrained table ~source ~receivers in
      List.iter
        (fun r -> Topology.Graph.set_multicast_capable g r true)
        (Topology.Graph.routers g);
      Mcast.Distribution.cost constrained >= Mcast.Distribution.cost ideal
      && List.for_all
           (fun r ->
             Mcast.Distribution.delay constrained r
             = Mcast.Distribution.delay ideal r)
           receivers)

let prop_pim_ss_is_tree =
  make "PIM-SS: reverse-SPT union is a tree" (fun _ table source receivers ->
      let links =
        List.map fst
          (Mcast.Distribution.link_loads (Pim.Pim_ss.build table ~source ~receivers))
      in
      let indeg = Hashtbl.create 16 in
      List.iter
        (fun (_, v) ->
          Hashtbl.replace indeg v
            (1 + Option.value ~default:0 (Hashtbl.find_opt indeg v)))
        links;
      Hashtbl.fold (fun v n acc -> acc && (v = source || n <= 1)) indeg true)

let prop_reunite_serves_everyone =
  make "REUNITE: every receiver served, any join order"
    (fun _ table source receivers ->
      let d = Reunite.Analytic.build table ~source ~receivers in
      Mcast.Distribution.receivers d = List.sort compare receivers)

let prop_reunite_settle_preserves_delivery =
  make "REUNITE: settle never loses receivers"
    (fun _ table source receivers ->
      let t = Reunite.Analytic.create table ~source in
      List.iter (Reunite.Analytic.join t) receivers;
      Reunite.Analytic.settle t;
      Mcast.Distribution.receivers (Reunite.Analytic.distribution t)
      = List.sort compare receivers)

let prop_pim_sm_serves_everyone =
  make "PIM-SM: every receiver served from any RP"
    (fun g table source receivers ->
      let rng = Stats.Rng.create (source * 31) in
      let rp = Stats.Rng.pick rng (Topology.Graph.routers g) in
      let d = Pim.Pim_sm.build table ~source ~rp ~receivers in
      Mcast.Distribution.receivers d = List.sort compare receivers)

let prop_all_costs_bounded_by_unicast_star =
  make "recursive unicast never exceeds per-receiver unicast"
    (fun _ table source receivers ->
      (* Sending each receiver its own unicast copy costs the sum of
         path lengths; every multicast tree must do at least as well. *)
      let star =
        List.fold_left
          (fun acc r ->
            acc + Routing.Path.hops (Routing.Table.path table source r))
          0 receivers
      in
      Mcast.Distribution.cost (Hbh.Analytic.build table ~source ~receivers)
      <= star
      && Mcast.Distribution.cost
           (Hbh.Analytic.build_constrained table ~source ~receivers)
         <= star)

let prop_symmetric_costs_collapse_gap =
  QCheck.Test.make ~name:"symmetric costs: PIM-SS delay = HBH delay" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let n = 8 + Stats.Rng.int rng 15 in
      let g = Topology.Generators.random_connected rng ~n ~avg_degree:3.0 in
      Topology.Graph.randomize_costs g rng ~lo:1 ~hi:10;
      Topology.Graph.symmetrize_costs g;
      let table = Routing.Table.compute g in
      let hosts = Topology.Graph.hosts g in
      let source = List.hd hosts in
      let receivers =
        Workload.Scenario.pick_receivers rng
          ~candidates:(List.tl hosts)
          ~n:(min 6 (n - 1))
      in
      let hbh = Hbh.Analytic.build table ~source ~receivers in
      let ss = Pim.Pim_ss.build table ~source ~receivers in
      (* With symmetric costs the reverse path has the forward path's
         delay, so per-receiver delays agree exactly. *)
      List.for_all
        (fun r ->
          match (Mcast.Distribution.delay hbh r, Mcast.Distribution.delay ss r) with
          | Some a, Some b -> Float.abs (a -. b) < 1e-9
          | _ -> false)
        receivers)

let prop_event_hbh_matches_analytic_small =
  QCheck.Test.make ~name:"event-driven HBH = analytic (small random nets)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let n = 5 + Stats.Rng.int rng 8 in
      let g = Topology.Generators.random_connected rng ~n ~avg_degree:2.5 in
      Topology.Graph.randomize_costs g rng ~lo:1 ~hi:10;
      let table = Routing.Table.compute g in
      let hosts = Topology.Graph.hosts g in
      let source = List.hd hosts in
      let receivers =
        Workload.Scenario.pick_receivers rng
          ~candidates:(List.tl hosts)
          ~n:(min 4 (n - 1))
      in
      let session = Hbh.Protocol.create table ~source in
      List.iter (Hbh.Protocol.subscribe session) receivers;
      Hbh.Protocol.converge ~periods:20 session;
      let d = Hbh.Protocol.probe session in
      Mcast.Distribution.equal_shape d
        (Hbh.Analytic.build table ~source ~receivers))

(* Router-router links actually carried by the tree, so a failure
   bites; host access links are excluded (no reroute exists for
   them). *)
let tree_core_links g table ~source ~receivers =
  List.concat_map
    (fun r ->
      let rec edges = function
        | a :: (b :: _ as rest)
          when Topology.Graph.is_router g a && Topology.Graph.is_router g b ->
            (min a b, max a b) :: edges rest
        | _ :: rest -> edges rest
        | [] -> []
      in
      edges (Routing.Table.path table source r))
    receivers
  |> List.sort_uniq compare

(* Fail link [u]-[v] for [down_for], then restore it, reconverging
   unicast routing after each change. *)
let flap (sut : Verif.Sut.t) ~u ~v ~down_for =
  sut.inject (Fault.Plan.Link_down { u; v });
  sut.inject Fault.Plan.Reconverge;
  sut.run_for down_for;
  sut.inject (Fault.Plan.Link_up { u; v });
  sut.inject Fault.Plan.Reconverge

(* One delivery probe as a distribution: the deliveries [probe]
   returns, and per directed link the data copies it carried, read
   off the session's per-hop trace events. *)
let probe (sut : Verif.Sut.t) =
  let loads = Hashtbl.create 32 in
  Obs.Trace.set_verbose sut.trace true;
  Obs.Trace.on_event sut.trace (fun e ->
      match e.Obs.Event.kind with
      | Obs.Event.Packet_forward { next; data = true; _ } ->
          let k = (e.Obs.Event.node, next) in
          Hashtbl.replace loads k
            (1 + Option.value ~default:0 (Hashtbl.find_opt loads k))
      | _ -> ());
  let deliveries = sut.probe () in
  Mcast.Distribution.of_accounting ~source:sut.source
    (Hashtbl.fold (fun k n acc -> (k, n) :: acc) loads [])
    deliveries

let prop_hbh_recovers_from_link_failure =
  QCheck.Test.make
    ~name:"HBH: any single link failure + restore heals by detected quiescence"
    ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g, table, source, receivers = scenario_of_seed seed in
      let sut = Verif.Sut.make Verif.Sut.Hbh table ~source in
      List.iter sut.subscribe receivers;
      sut.converge ();
      let tree_links = tree_core_links g table ~source ~receivers in
      match tree_links with
      | [] -> true (* degenerate star: nothing to fail *)
      | links ->
          let pick = Stats.Rng.create (seed + 7919) in
          let u, v = List.nth links (Stats.Rng.int pick (List.length links)) in
          flap sut ~u ~v ~down_for:(2.0 *. Hbh.Protocol.default_config.t1);
          (* Run until the verification layer's quiescence detector
             sees the soft state settle (canonical digest stable
             across refresh windows), instead of a blind fixed wait.
             The budget is derived, not guessed: an abandoned branch
             drains one hop per t2 in the worst case — a stale
             entry's final tree messages re-refresh its downstream
             entry just before it dies — so total drain is bounded by
             the branch depth, itself bounded by the router count.
             The old heuristic burned a flat 4*t2 on every run, which
             both over-waits on the common shallow case and is
             exceeded by deep refresh chains; detection waits exactly
             as long as the drain takes and turns a genuinely
             non-converging state into a failure instead of a silent
             half-wait. *)
          let routers = List.length (Topology.Graph.routers g) in
          let budget_factor = float_of_int (routers + 2) in
          (match Verif.Scenario.quiesce ~budget_factor sut with
          | Some _ -> ()
          | None ->
              QCheck.Test.fail_reportf
                "soft state still churning %g*t2 after link restore"
                budget_factor);
          let d = probe sut in
          Mcast.Distribution.receivers d = List.sort compare receivers
          && Mcast.Distribution.max_stress d = 1)

(* The same healing contract for the hard-state instance.  HPIM-DM
   has no refresh cycle to drain: detection is the hello holdtime, and
   repair is event-driven — the RPF side re-expresses its interest
   reliably, the far side's hard entry resumes on revival-sync — so
   the property doubles as a regression net for the reliable layer's
   retransmission/ack clearing under partitions. *)
let prop_hpim_recovers_from_link_failure =
  QCheck.Test.make
    ~name:
      "HPIM-DM: any single link failure + restore heals by detected quiescence"
    ~count:10
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g, table, source, receivers = scenario_of_seed seed in
      let sut = Verif.Sut.make Verif.Sut.Hpim_dm table ~source in
      List.iter sut.subscribe receivers;
      sut.converge ();
      let tree_links = tree_core_links g table ~source ~receivers in
      match tree_links with
      | [] -> true (* degenerate star: nothing to fail *)
      | links ->
          let pick = Stats.Rng.create (seed + 7919) in
          let u, v = List.nth links (Stats.Rng.int pick (List.length links)) in
          (* past the holdtime ([t2] here), so both endpoints declare
             each other dead and the hard state across the link is
             released *)
          flap sut ~u ~v ~down_for:(2.0 *. sut.t2);
          let routers = List.length (Topology.Graph.routers g) in
          let budget_factor = float_of_int (routers + 2) in
          (match Verif.Scenario.quiesce ~budget_factor sut with
          | Some _ -> ()
          | None ->
              QCheck.Test.fail_reportf
                "hard state still churning %g*holdtime after link restore"
                budget_factor);
          let d = probe sut in
          (* Copies are unicast-addressed (PIM-SSM's shape), so with
             asymmetric costs two copies' paths may share a link —
             per-link stress 1 is not this stack's invariant.  The
             heal contract is per-receiver: everyone served, exactly
             one copy each. *)
          Mcast.Distribution.receivers d = List.sort compare receivers
          && Mcast.Distribution.duplicate_deliveries d = 0)

(* The ROADMAP mutual-capture pathology, replayed: the link-failure
   property's qcheck input 71643 — link 5-17 on a 22-router random
   topology.  Before the route-epoch freshness guard (DESIGN.md §6b)
   the restore left two HBH branch routers holding each other in
   their MFTs, a forwarding loop that mutual refreshing kept alive
   forever; a runtime monitor confirmed the tree_loop_free violation
   from a plain run.  With the guard, intercepted joins no longer
   refresh entries the post-restore routing doesn't validate, so the
   zombie branch drains: the monitor must stay silent and the member
   must heal (every receiver served, one copy each).  The golden plan
   test/golden/hbh-mutual-capture.plan replays the same scenario
   through the fault DSL. *)
let test_mutual_capture_heals () =
  let seed = 71643 in
  let g, table, source, receivers = scenario_of_seed seed in
  let sut = Verif.Sut.make Verif.Sut.Hbh table ~source in
  List.iter sut.subscribe receivers;
  sut.converge ();
  let tree_links = tree_core_links g table ~source ~receivers in
  let pick = Stats.Rng.create (seed + 7919) in
  let u, v = List.nth tree_links (Stats.Rng.int pick (List.length tree_links)) in
  Alcotest.(check (pair int int)) "the ROADMAP repro link" (5, 17) (u, v);
  let mon = Verif.Monitor.attach sut in
  flap sut ~u ~v ~down_for:(2.0 *. Hbh.Protocol.default_config.t1);
  sut.run_for (8.0 *. sut.t2);
  Verif.Monitor.stop mon;
  Alcotest.(check int) "no confirmed monitor violations" 0
    (List.length (Verif.Monitor.violations mon));
  let d = probe sut in
  Alcotest.(check (list int))
    "every receiver served after restore" (List.sort compare receivers)
    (Mcast.Distribution.receivers d);
  Alcotest.(check int) "one copy per receiver" 1 (Mcast.Distribution.max_stress d)

(* ROADMAP item 1's HBH healing defect at every input of the
   link-failure property above that fails in 0..100000, each run
   through the same body: fail the picked core link for 2*t1, restore
   it, wait for detected quiescence, probe.  The detector reports
   quiescence, yet the probe misses members: fusion marks keep the
   router that serves them marked upstream, so no router copies data
   to it.  These cases assert today's failure — the HBH marking fix
   flips all seven, and they then assert that every receiver is
   served.  722 is an 8-router grid (source 11, receivers 8, 9, 12 and
   15); 20112 an 18-router random graph (source 34, receivers 19, 23,
   25 and 35). *)
let healing_misses seed =
  let g, table, source, receivers = scenario_of_seed seed in
  let sut = Verif.Sut.make Verif.Sut.Hbh table ~source in
  List.iter sut.subscribe receivers;
  sut.converge ();
  let tree_links = tree_core_links g table ~source ~receivers in
  let pick = Stats.Rng.create (seed + 7919) in
  let u, v = List.nth tree_links (Stats.Rng.int pick (List.length tree_links)) in
  flap sut ~u ~v ~down_for:(2.0 *. Hbh.Protocol.default_config.t1);
  let budget_factor =
    float_of_int (List.length (Topology.Graph.routers g) + 2)
  in
  let quiesced = Verif.Scenario.quiesce ~budget_factor sut <> None in
  let served = Mcast.Distribution.receivers (probe sut) in
  ( (u, v),
    quiesced,
    List.filter (fun r -> not (List.mem r served)) (List.sort compare receivers)
  )

(* Input, flapped link, members the probe misses: the first two
   pinned inputs, then the other five in ascending order. *)
let healing_repros =
  [
    (722, (2, 3), [ 15 ]);
    (20112, (6, 16), [ 19; 35 ]);
    (3272, (12, 13), [ 30 ]);
    (7374, (11, 12), [ 14; 24 ]);
    (14194, (6, 17), [ 37; 43 ]);
    (21752, (11, 12), [ 23 ]);
    (71094, (0, 6), [ 17; 23; 26 ]);
  ]

let healing_case (seed, flapped, expected) =
  Alcotest.test_case
    (Printf.sprintf "HBH healing input %d still misses %s" seed
       (String.concat ", " (List.map string_of_int expected)))
    `Quick
    (fun () ->
      let link, quiesced, missed = healing_misses seed in
      Alcotest.(check (pair int int)) "the ROADMAP repro link" flapped link;
      Alcotest.(check bool) "quiescence detected" true quiesced;
      Alcotest.(check (list int)) "members the probe misses (defect)" expected
        missed)

(* The same pathology as a committed fixture: the ddmin-minimal plan
   (link 5-17 down, one decay window, link up) replayed through the
   fault DSL against the 71643 scenario.  The guard makes it clean —
   the file documents what used to break and trips if it ever breaks
   again. *)
let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_mutual_capture_golden_plan () =
  let plan =
    Fault.Plan.of_string (read_file "golden/hbh-mutual-capture.plan")
  in
  (* the text form round-trips: the fixture stays loadable *)
  let reparsed = Fault.Plan.of_string (Fault.Plan.to_string plan) in
  Alcotest.(check int)
    "round-trip directive count"
    (List.length (Fault.Plan.directives plan))
    (List.length (Fault.Plan.directives reparsed));
  let _, table, source, receivers = scenario_of_seed 71643 in
  let sut = Verif.Sut.make Verif.Sut.Hbh table ~source in
  List.iter sut.subscribe receivers;
  sut.converge ();
  let vs = Verif.Scenario.replay_plan sut plan in
  Alcotest.(check (list string))
    "golden plan replays clean under the freshness guard" []
    (List.map (fun (v : Verif.Oracle.violation) -> v.Verif.Oracle.oracle) vs)

let () =
  Alcotest.run "properties"
    [
      ( "protocol-invariants",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hbh_one_copy_per_link;
            prop_hbh_shortest_delay;
            prop_hbh_dominates_all_delays;
            prop_hbh_constrained_consistent;
            prop_pim_ss_is_tree;
            prop_reunite_serves_everyone;
            prop_reunite_settle_preserves_delivery;
            prop_pim_sm_serves_everyone;
            prop_all_costs_bounded_by_unicast_star;
            prop_symmetric_costs_collapse_gap;
            prop_hbh_recovers_from_link_failure;
            prop_hpim_recovers_from_link_failure;
            prop_event_hbh_matches_analytic_small;
          ] );
      ( "runtime-monitor",
        [
          Alcotest.test_case
            "the 71643 mutual-capture input heals under the freshness guard"
            `Quick test_mutual_capture_heals;
          Alcotest.test_case "the golden mutual-capture plan replays clean"
            `Quick test_mutual_capture_golden_plan;
        ]
        @ List.map healing_case healing_repros );
    ]
