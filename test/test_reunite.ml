(* Tests for REUNITE: the analytic converged model (capture rules,
   Section 2.3 pathologies, leave reconvergence) and the event-driven
   protocol (construction, teardown, orphan collapse). *)

module Det = Experiments.Scenarios.Detour
module Dup = Experiments.Scenarios.Duplication

let isp_scenario seed n =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create seed in
  Workload.Scenario.make rng g ~source:Topology.Isp.source
    ~candidates:Topology.Isp.receiver_hosts ~n

(* ---- Analytic: figure 2 ------------------------------------------------- *)

let test_first_join_reaches_source () =
  let t = Reunite.Analytic.create (Det.table ()) ~source:Det.source in
  Reunite.Analytic.join t Det.r1;
  Alcotest.(check (option (pair int (list int)))) "source table holds r1"
    (Some (Det.r1, []))
    (Reunite.Analytic.mft_of t Det.source)

let test_join_captured_at_mct_node () =
  let t = Reunite.Analytic.create (Det.table ()) ~source:Det.source in
  Reunite.Analytic.join t Det.r1;
  Reunite.Analytic.join t Det.r2;
  (* R3 (node 3) holds r1's control entry and converts on r2's join. *)
  Alcotest.(check (option (pair int (list int)))) "R3 branching"
    (Some (Det.r1, [ Det.r2 ]))
    (Reunite.Analytic.mft_of t 3)

let test_detour_path_and_delay () =
  let t = Reunite.Analytic.create (Det.table ()) ~source:Det.source in
  Reunite.Analytic.join t Det.r1;
  Reunite.Analytic.join t Det.r2;
  Alcotest.(check (option (list int))) "r2 on the detour"
    (Some [ 0; 1; 3; Det.r2 ])
    (Reunite.Analytic.data_path t Det.r2);
  let d = Reunite.Analytic.distribution t in
  Alcotest.(check (option (float 0.0))) "detour delay 3" (Some 3.0)
    (Mcast.Distribution.delay d Det.r2);
  Alcotest.(check (option (float 0.0))) "r1 on shortest path" (Some 3.0)
    (Mcast.Distribution.delay d Det.r1)

let test_join_order_matters () =
  let build order =
    let t = Reunite.Analytic.create (Det.table ()) ~source:Det.source in
    List.iter (Reunite.Analytic.join t) order;
    Mcast.Distribution.avg_delay (Reunite.Analytic.distribution t)
  in
  (* r2 first: r2 joins at S on its shortest path; r1's join is then
     captured on r1's reverse path.  Different tree than r1-first. *)
  Alcotest.(check bool) "order changes the tree" true
    (build [ Det.r1; Det.r2 ] <> build [ Det.r2; Det.r1 ])

let test_leave_reconverges_to_shortest () =
  let t = Reunite.Analytic.create (Det.table ()) ~source:Det.source in
  Reunite.Analytic.join t Det.r1;
  Reunite.Analytic.join t Det.r2;
  Reunite.Analytic.leave t Det.r1;
  Alcotest.(check (option (list int))) "r1 no longer a member" None
    (Reunite.Analytic.data_path t Det.r1);
  Alcotest.(check (option (pair int (list int)))) "source table holds r2 only"
    (Some (Det.r2, []))
    (Reunite.Analytic.mft_of t Det.source);
  Alcotest.(check (option (list int))) "r2 rerouted to shortest"
    (Some [ 0; 4; Det.r2 ])
    (Reunite.Analytic.data_path t Det.r2)

let test_leave_nonmember_noop () =
  let t = Reunite.Analytic.create (Det.table ()) ~source:Det.source in
  Reunite.Analytic.join t Det.r1;
  let before = Reunite.Analytic.state t in
  Reunite.Analytic.leave t 999 |> ignore;
  Alcotest.(check (option (pair int (list int)))) "source table unchanged"
    (Some (Det.r1, []))
    (Reunite.Analytic.mft_of t Det.source);
  Alcotest.(check bool) "state unchanged" true (Reunite.Analytic.state t = before)

let test_join_idempotent () =
  let t = Reunite.Analytic.create (Det.table ()) ~source:Det.source in
  Reunite.Analytic.join t Det.r1;
  Reunite.Analytic.join t Det.r1;
  Alcotest.(check (option (pair int (list int)))) "one membership"
    (Some (Det.r1, []))
    (Reunite.Analytic.mft_of t Det.source);
  Alcotest.(check int) "one flow" 1 (Reunite.Analytic.flow_inserts t)

let test_source_cannot_join () =
  let t = Reunite.Analytic.create (Det.table ()) ~source:Det.source in
  Alcotest.(check bool) "raises" true
    (try
       Reunite.Analytic.join t Det.source;
       false
     with Invalid_argument _ -> true)

(* ---- Analytic: figure 3 duplication ------------------------------------- *)

let test_duplication_on_shared_link () =
  Alcotest.(check int) "two copies on R1->R6" 2
    (Dup.reunite_copies_on_shared_link ());
  Alcotest.(check int) "REUNITE cost 7" 7 (Dup.reunite_cost ())

let test_duplication_stress () =
  let d =
    Reunite.Analytic.build (Dup.table ()) ~source:Dup.source
      ~receivers:[ Dup.r1; Dup.r2 ]
  in
  Alcotest.(check int) "max stress 2" 2 (Mcast.Distribution.max_stress d);
  Alcotest.(check int) "one duplicated link" 1
    (Mcast.Distribution.duplicated_links d)

(* ---- Analytic: randomized invariants ------------------------------------ *)

let test_all_receivers_always_served () =
  for seed = 1 to 20 do
    let s = isp_scenario seed ((seed mod 16) + 2) in
    let d = Reunite.Analytic.build s.table ~source:s.source ~receivers:s.receivers in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d served" seed)
      (List.sort compare s.receivers)
      (Mcast.Distribution.receivers d)
  done

let test_cost_at_least_hbh () =
  (* REUNITE can only duplicate relative to the ideal forward-SPT
     union when serving the same receivers along possibly longer
     routes; its cost is bounded below by the number of links a
     spanning structure needs... compare against HBH's union size
     statistically: over many runs the mean is higher. *)
  let re = Stats.Summary.create () and hbh = Stats.Summary.create () in
  for seed = 1 to 40 do
    let s = isp_scenario (300 + seed) 10 in
    Stats.Summary.add_int re
      (Mcast.Distribution.cost
         (Reunite.Analytic.build s.table ~source:s.source ~receivers:s.receivers));
    Stats.Summary.add_int hbh
      (Mcast.Distribution.cost
         (Hbh.Analytic.build s.table ~source:s.source ~receivers:s.receivers))
  done;
  Alcotest.(check bool) "REUNITE mean cost above HBH's" true
    (Stats.Summary.mean re > Stats.Summary.mean hbh)

let test_state_counts_consistent () =
  let s = isp_scenario 17 10 in
  let t = Reunite.Analytic.create s.table ~source:s.source in
  List.iter (Reunite.Analytic.join t) s.receivers;
  let st = Reunite.Analytic.state t in
  Alcotest.(check bool) "branching nodes exist for 10 receivers" true
    (st.Mcast.Metrics.branching_routers >= 1);
  Alcotest.(check bool) "mft entries >= 2 per branching node" true
    (st.mft_entries >= 2 * st.branching_routers);
  Alcotest.(check int) "branching routers listed" st.branching_routers
    (List.length
       (List.filter
          (fun n -> Reunite.Analytic.mft_of t n <> None)
          (Topology.Graph.routers (Routing.Table.graph s.table))))

let test_settle_idempotent () =
  let s = isp_scenario 21 8 in
  let t = Reunite.Analytic.create s.table ~source:s.source in
  List.iter (Reunite.Analytic.join t) s.receivers;
  Reunite.Analytic.settle t;
  let d1 = Reunite.Analytic.distribution t in
  Reunite.Analytic.settle t;
  let d2 = Reunite.Analytic.distribution t in
  Alcotest.(check bool) "fixpoint" true (Mcast.Distribution.equal_shape d1 d2)

(* ---- Analytic: against the whole-replay reference ----------------------- *)

(* [Reunite_reference] is the whole-replay model: every join re-runs
   every flow and rebuilds every MCT.  Random graphs
   (random-connected, power-law, ISP) with random costs — a narrow cost
   range makes arrival-time ties common, so the DFS tie rule is
   exercised — and a random sequence of joins (repeats included),
   leaves and settles; after every step both models must agree on
   every table, entry order included, on every member's data path and
   on the packet's distribution.  Sources are hosts except one case in
   three, where a router source lets flows pass it in transit; members
   are hosts and, in one case in two, routers too. *)

module Ref = Reunite_reference

type op = Join of int | Leave of int | Settle

let pp_op = function
  | Join r -> Printf.sprintf "join %d" r
  | Leave r -> Printf.sprintf "leave %d" r
  | Settle -> "settle"

let reference_case seed =
  let rng = Stats.Rng.create seed in
  let g =
    match Stats.Rng.int rng 3 with
    | 0 ->
        Topology.Generators.random_connected rng
          ~n:(8 + Stats.Rng.int rng 30)
          ~avg_degree:(2.5 +. float_of_int (Stats.Rng.int rng 3))
    | 1 -> Topology.Generators.power_law rng ~n:(8 + Stats.Rng.int rng 30)
    | _ -> Topology.Isp.create ()
  in
  Topology.Graph.randomize_costs g rng ~lo:1
    ~hi:(Stats.Rng.pick rng [ 2; 3; 10 ]);
  let table = Routing.Table.compute g in
  let hosts = Topology.Graph.hosts g in
  let source =
    if Stats.Rng.int rng 3 = 0 then Stats.Rng.pick rng (Topology.Graph.routers g)
    else Stats.Rng.pick rng hosts
  in
  let pool =
    (if Stats.Rng.int rng 2 = 0 then Topology.Graph.routers g else []) @ hosts
    |> List.filter (fun n -> n <> source)
  in
  let ops =
    List.init
      (1 + Stats.Rng.int rng 40)
      (fun _ ->
        match Stats.Rng.int rng 10 with
        | 0 | 1 -> Leave (Stats.Rng.pick rng pool)
        | 2 | 3 -> Settle
        | _ -> Join (Stats.Rng.pick rng pool))
  in
  (g, table, source, ops)

(* The first disagreement between the two models, if any. *)
let disagreement g t r =
  let n = Topology.Graph.node_count g in
  let nodes = List.init n Fun.id in
  let d = Reunite.Analytic.distribution t and dr = Ref.distribution r in
  let check what ok = if ok then None else Some what in
  List.find_map Fun.id
    [
      List.find_map
        (fun v ->
          check (Printf.sprintf "mft_of %d" v)
            (Reunite.Analytic.mft_of t v = Ref.mft_of r v))
        nodes;
      List.find_map
        (fun v ->
          check (Printf.sprintf "mct_of %d" v)
            (Reunite.Analytic.mct_of t v = Ref.mct_of r v))
        nodes;
      check "state" (Reunite.Analytic.state t = Ref.state r);
      List.find_map
        (fun v ->
          check (Printf.sprintf "data_path %d" v)
            (Reunite.Analytic.data_path t v = Ref.data_path r v))
        nodes;
      check "link_loads"
        (Mcast.Distribution.link_loads d = Mcast.Distribution.link_loads dr);
      check "receivers"
        (Mcast.Distribution.receivers d = Mcast.Distribution.receivers dr);
      List.find_map
        (fun v ->
          check (Printf.sprintf "delay %d" v)
            (Mcast.Distribution.delay d v = Mcast.Distribution.delay dr v))
        nodes;
      check "duplicate deliveries"
        (Mcast.Distribution.duplicate_deliveries d
        = Mcast.Distribution.duplicate_deliveries dr);
    ]

(* Run case [seed] through both models; the first failure, if any.  A
   join of a new member must also insert exactly one flow when the
   source is a host. *)
let reference_failure seed =
  let g, table, source, ops = reference_case seed in
  let t = Reunite.Analytic.create table ~source in
  let r = Ref.create table ~source in
  let rec steps i = function
    | [] -> None
    | op :: rest -> (
        let fresh =
          match op with
          | Join m -> not (List.mem m (Ref.members r))
          | Leave _ | Settle -> false
        in
        let inserts = Reunite.Analytic.flow_inserts t in
        (match op with
        | Join m ->
            Reunite.Analytic.join t m;
            Ref.join r m
        | Leave m ->
            Reunite.Analytic.leave t m;
            Ref.leave r m
        | Settle ->
            Reunite.Analytic.settle t;
            Ref.settle r);
        let added = Reunite.Analytic.flow_inserts t - inserts in
        match disagreement g t r with
        | Some what ->
            Some (Printf.sprintf "step %d (%s): %s differs" i (pp_op op) what)
        | None when fresh && Topology.Graph.is_host g source && added <> 1 ->
            Some
              (Printf.sprintf "step %d (%s) inserted %d flows" i (pp_op op)
                 added)
        | None -> steps (i + 1) rest)
  in
  steps 0 ops

let prop_matches_reference =
  QCheck.Test.make ~name:"one-flow inserts = whole-replay reference" ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      match reference_failure seed with
      | Some msg -> QCheck.Test.fail_report msg
      | None -> true)

(* Case 779959: a router source that a flow passes in transit and
   forks at, so the fourth step's join at the source creates two
   flows — the root flow and a fork at the source — and the model
   re-inserts everything. *)
let test_router_source_forks () =
  Alcotest.(check (option string)) "agrees with the reference" None
    (reference_failure 779959)

(* ---- Event-driven protocol ----------------------------------------------- *)

let test_event_matches_analytic_on_detour () =
  let tbl = Det.table () in
  let session = Reunite.Protocol.create tbl ~source:Det.source in
  Reunite.Protocol.subscribe session Det.r1;
  Reunite.Protocol.run_for session 300.0;
  Reunite.Protocol.subscribe session Det.r2;
  Reunite.Protocol.converge session;
  let event = Reunite.Protocol.probe session in
  let t = Reunite.Analytic.create tbl ~source:Det.source in
  Reunite.Analytic.join t Det.r1;
  Reunite.Analytic.join t Det.r2;
  Alcotest.(check bool) "identical distribution" true
    (Mcast.Distribution.equal_shape event (Reunite.Analytic.distribution t))

let test_event_duplication_scenario () =
  let tbl = Dup.table () in
  let session = Reunite.Protocol.create tbl ~source:Dup.source in
  Reunite.Protocol.subscribe session Dup.r1;
  Reunite.Protocol.run_for session 300.0;
  Reunite.Protocol.subscribe session Dup.r2;
  Reunite.Protocol.converge session;
  let d = Reunite.Protocol.probe session in
  let u, v = Dup.shared_link in
  Alcotest.(check int) "two live copies on the shared link" 2
    (Mcast.Distribution.copies d u v)

(* Both flows transit R6 (the source's to r1 and R1's fork to r2), so
   R6's control table holds one entry per relayed receiver. *)
let test_event_mct_per_relayed_receiver () =
  let session = Reunite.Protocol.create (Dup.table ()) ~source:Dup.source in
  Reunite.Protocol.subscribe session Dup.r1;
  Reunite.Protocol.run_for session 300.0;
  Reunite.Protocol.subscribe session Dup.r2;
  Reunite.Protocol.converge session;
  match List.assoc_opt 6 (Reunite.Protocol.all_tables session) with
  | Some { Reunite.Tables.mct = Some mct; _ } ->
      Alcotest.(check (list int)) "R6 relays r1 and r2" [ Dup.r1; Dup.r2 ]
        (List.map
           (fun (e : Proto.Softstate.entry) -> e.node)
           (Proto.Softstate.Table.entries mct))
  | Some { Reunite.Tables.mct = None; _ } | None ->
      Alcotest.fail "R6 holds no control table"

let test_event_teardown_on_leave () =
  let tbl = Det.table () in
  let session = Reunite.Protocol.create tbl ~source:Det.source in
  Reunite.Protocol.subscribe session Det.r1;
  Reunite.Protocol.run_for session 300.0;
  Reunite.Protocol.subscribe session Det.r2;
  Reunite.Protocol.converge session;
  Reunite.Protocol.unsubscribe session Det.r1;
  Reunite.Protocol.run_for session 2000.0;
  let d = Reunite.Protocol.probe session in
  Alcotest.(check (list int)) "only r2 served" [ Det.r2 ]
    (Mcast.Distribution.receivers d);
  Alcotest.(check (option (float 0.0))) "r2 back on shortest path" (Some 2.0)
    (Mcast.Distribution.delay d Det.r2)

(* The per-router record lives only while it holds a table: the sweep
   keeps it while either table is alive and gives [None] once both are
   gone. *)
let test_tables_sweep () =
  let dl = { Proto.Softstate.t1 = 10.0; t2 = 25.0 } in
  let mct = Proto.Softstate.Table.create () in
  ignore (Proto.Softstate.Table.add_fresh mct dl ~now:0.0 4);
  let st =
    {
      Reunite.Tables.mct = Some mct;
      mft = Some (Reunite.Tables.Mft.create dl ~now:10.0 ~dst:5);
    }
  in
  Alcotest.(check bool)
    "MFT alive, record kept" true
    (match Reunite.Tables.sweep st ~now:30.0 with
    | Some s -> s == st
    | None -> false);
  Alcotest.(check bool) "dead MCT dropped" true (st.mct = None);
  Alcotest.(check bool) "MFT still there" true (st.mft <> None);
  Alcotest.(check bool)
    "both gone" true
    (Reunite.Tables.sweep st ~now:40.0 = None)

(* A router's record is dropped exactly when it is empty: after every
   event, each listed router holds a table, and every record that left
   the list was emptied first (by a sweep, or by a marked tree tearing
   down its last control entry) — one still holding an MFT is never
   released.  An ISP group of eight converges, then half of it
   leaves. *)
let test_event_records_released_only_when_empty () =
  let s = isp_scenario 1 8 in
  let session = Reunite.Protocol.create s.table ~source:s.source in
  let engine = Reunite.Protocol.engine session in
  let empty (st : Reunite.Tables.channel_state) =
    st.mct = None && st.mft = None
  in
  let before = ref [] in
  let run_checked span =
    let until = Eventsim.Engine.now engine +. span in
    while Eventsim.Engine.now engine < until && Eventsim.Engine.step engine do
      let after = Reunite.Protocol.all_tables session in
      List.iter
        (fun (n, st) ->
          if empty st then Alcotest.failf "router %d keeps an empty record" n)
        after;
      List.iter
        (fun (n, st) ->
          if (not (List.mem_assoc n after)) && not (empty st) then
            Alcotest.failf "router %d released a record still holding state"
              n)
        !before;
      before := after
    done
  in
  List.iter (Reunite.Protocol.subscribe session) s.receivers;
  run_checked 1200.0;
  let stay, leave = List.partition (fun r -> r mod 2 = 0) s.receivers in
  List.iter (Reunite.Protocol.unsubscribe session) leave;
  run_checked 2000.0;
  Alcotest.(check (list int)) "the remaining members served"
    (List.sort compare stay)
    (Mcast.Distribution.receivers (Reunite.Protocol.probe session))

let test_event_empty_group_sends_nothing () =
  let tbl = Det.table () in
  let session = Reunite.Protocol.create tbl ~source:Det.source in
  Reunite.Protocol.converge session;
  let d = Reunite.Protocol.probe session in
  Alcotest.(check int) "no copies" 0 (Mcast.Distribution.cost d)

let test_event_full_depletion () =
  (* All receivers leave: every router table must eventually drain. *)
  let tbl = Det.table () in
  let session = Reunite.Protocol.create tbl ~source:Det.source in
  Reunite.Protocol.subscribe session Det.r1;
  Reunite.Protocol.subscribe session Det.r2;
  Reunite.Protocol.converge session;
  Reunite.Protocol.unsubscribe session Det.r1;
  Reunite.Protocol.unsubscribe session Det.r2;
  Reunite.Protocol.run_for session 3000.0;
  Alcotest.(check (list int)) "no router holds state" []
    (List.map fst (Reunite.Protocol.all_tables session));
  let d = Reunite.Protocol.probe session in
  Alcotest.(check int) "silent" 0 (Mcast.Distribution.cost d)

let test_event_isp_group_serves_everyone () =
  let s = isp_scenario 33 8 in
  let session = Reunite.Protocol.create s.table ~source:s.source in
  List.iter
    (fun r ->
      Reunite.Protocol.subscribe session r;
      Reunite.Protocol.run_for session 300.0)
    s.receivers;
  Reunite.Protocol.converge session;
  let d = Reunite.Protocol.probe session in
  Alcotest.(check (list int)) "all served" (List.sort compare s.receivers)
    (Mcast.Distribution.receivers d)

let test_event_overhead_positive () =
  let s = isp_scenario 35 4 in
  let session = Reunite.Protocol.create s.table ~source:s.source in
  List.iter (Reunite.Protocol.subscribe session) s.receivers;
  Reunite.Protocol.converge session;
  Alcotest.(check bool) "control traffic flowed" true
    (Reunite.Protocol.control_overhead session > 0)

let () =
  Alcotest.run "reunite"
    [
      ("tables", [ Alcotest.test_case "sweep" `Quick test_tables_sweep ]);
      ( "analytic-detour",
        [
          Alcotest.test_case "first join reaches source" `Quick
            test_first_join_reaches_source;
          Alcotest.test_case "capture at MCT node" `Quick test_join_captured_at_mct_node;
          Alcotest.test_case "detour path and delay" `Quick test_detour_path_and_delay;
          Alcotest.test_case "join order matters" `Quick test_join_order_matters;
          Alcotest.test_case "leave reconverges" `Quick test_leave_reconverges_to_shortest;
          Alcotest.test_case "leave non-member" `Quick test_leave_nonmember_noop;
          Alcotest.test_case "join idempotent" `Quick test_join_idempotent;
          Alcotest.test_case "source cannot join" `Quick test_source_cannot_join;
        ] );
      ( "analytic-duplication",
        [
          Alcotest.test_case "shared-link copies" `Quick test_duplication_on_shared_link;
          Alcotest.test_case "stress metrics" `Quick test_duplication_stress;
        ] );
      ( "analytic-random",
        [
          Alcotest.test_case "always serves all" `Quick test_all_receivers_always_served;
          Alcotest.test_case "costlier than HBH" `Quick test_cost_at_least_hbh;
          Alcotest.test_case "state counts" `Quick test_state_counts_consistent;
          Alcotest.test_case "settle idempotent" `Quick test_settle_idempotent;
        ] );
      ( "analytic-reference",
        [
          Alcotest.test_case "router source forked in transit" `Quick
            test_router_source_forks;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "matches analytic (fig 2)" `Quick
            test_event_matches_analytic_on_detour;
          Alcotest.test_case "duplication (fig 3)" `Quick test_event_duplication_scenario;
          Alcotest.test_case "one MCT entry per relayed receiver (fig 3)" `Quick
            test_event_mct_per_relayed_receiver;
          Alcotest.test_case "teardown on leave (fig 2b-d)" `Quick
            test_event_teardown_on_leave;
          Alcotest.test_case "records released only when empty" `Quick
            test_event_records_released_only_when_empty;
          Alcotest.test_case "empty group" `Quick test_event_empty_group_sends_nothing;
          Alcotest.test_case "full depletion" `Quick test_event_full_depletion;
          Alcotest.test_case "isp group served" `Quick test_event_isp_group_serves_everyone;
          Alcotest.test_case "overhead counted" `Quick test_event_overhead_positive;
        ] );
    ]
