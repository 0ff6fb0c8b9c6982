(* Tests for HBH, the paper's contribution: soft-state tables, the
   analytic converged tree (SPT property, no duplication), the
   unicast-cloud constrained variant, and the event-driven Appendix-A
   protocol, including the figure 5 walk-through. *)

module Det = Experiments.Scenarios.Detour
module Dup = Experiments.Scenarios.Duplication
module Ss = Proto.Softstate

let is_branching = function Hbh.Tables.Forwarding _ -> true | _ -> false

let isp_scenario seed n =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create seed in
  Workload.Scenario.make rng g ~source:Topology.Isp.source
    ~candidates:Topology.Isp.receiver_hosts ~n

(* ---- Tables -------------------------------------------------------------- *)

let dl = { Ss.t1 = 10.0; t2 = 25.0 }

let test_mft_lifecycle () =
  let m = Ss.Table.create () in
  ignore (Ss.Table.add_fresh m dl ~now:0.0 5);
  Alcotest.(check bool) "member" true (Ss.Table.mem m 5);
  Alcotest.(check (list int)) "data target" [ 5 ]
    (Ss.Table.data_targets m ~now:1.0);
  Alcotest.(check (list int)) "tree target while fresh" [ 5 ]
    (Ss.Table.fresh_targets m ~now:1.0);
  (* After t1 the entry is stale: data yes, trees no. *)
  Alcotest.(check (list int)) "stale: data" [ 5 ]
    (Ss.Table.data_targets m ~now:12.0);
  Alcotest.(check (list int)) "stale: no trees" []
    (Ss.Table.fresh_targets m ~now:12.0);
  (* After t2 it is dead. *)
  Ss.Table.expire m ~now:26.0;
  Alcotest.(check bool) "gone" false (Ss.Table.mem m 5)

let test_mft_marked_semantics () =
  let m = Ss.Table.create () in
  ignore (Ss.Table.add_fresh m dl ~now:0.0 5);
  Alcotest.(check bool) "mark succeeds" true (Ss.Table.mark m dl ~now:0.0 5);
  Alcotest.(check (list int)) "marked: no data" []
    (Ss.Table.data_targets m ~now:1.0);
  Alcotest.(check (list int)) "marked: trees flow" [ 5 ]
    (Ss.Table.fresh_targets m ~now:1.0);
  Alcotest.(check bool) "mark unknown fails" false (Ss.Table.mark m dl ~now:0.0 9)

let test_mft_refresh_preserves_mark () =
  let m = Ss.Table.create () in
  ignore (Ss.Table.add_fresh m dl ~now:0.0 5);
  ignore (Ss.Table.mark m dl ~now:0.0 5);
  Alcotest.(check bool) "refresh ok" true (Ss.Table.refresh m dl ~now:9.0 5);
  Alcotest.(check (list int)) "still marked" []
    (Ss.Table.data_targets m ~now:9.5);
  Alcotest.(check (list int)) "alive past original t2" [ 5 ]
    (Ss.Table.fresh_targets m ~now:18.0);
  (* The mark is itself soft state: unless a later fusion re-asserts
     it, it lapses at its own t1 and data flows again. *)
  Alcotest.(check (list int)) "mark decays at t1" [ 5 ]
    (Ss.Table.data_targets m ~now:10.0);
  ignore (Ss.Table.mark m dl ~now:10.0 5);
  Alcotest.(check (list int)) "re-marked" []
    (Ss.Table.data_targets m ~now:11.0)

let test_mft_fusion_add_stale () =
  let m = Ss.Table.create () in
  let e = Ss.Table.add_stale m dl ~now:0.0 7 in
  Alcotest.(check bool) "born stale" true (Ss.entry_stale e ~now:0.0);
  Alcotest.(check (list int)) "stale yet data-forwarding" [ 7 ]
    (Ss.Table.data_targets m ~now:0.0);
  (* Join refresh freshens it; a later fusion must keep it fresh. *)
  ignore (Ss.Table.refresh m dl ~now:1.0 7);
  let e = Ss.Table.add_stale m dl ~now:2.0 7 in
  Alcotest.(check bool) "fusion does not downgrade freshness" false
    (Ss.entry_stale e ~now:3.0)

let test_mct_lifecycle () =
  let c = Ss.entry dl ~now:0.0 4 in
  Alcotest.(check int) "target" 4 c.Ss.node;
  Alcotest.(check bool) "fresh" false (Ss.entry_stale c ~now:5.0);
  Alcotest.(check bool) "stale after t1" true (Ss.entry_stale c ~now:11.0);
  Alcotest.(check bool) "dead after t2" true (Ss.entry_dead c ~now:26.0);
  (* Rule 7 replaces a stale MCT with a fresh entry for the new target. *)
  let c = Ss.entry dl ~now:12.0 9 in
  Alcotest.(check int) "replaced" 9 c.Ss.node;
  Alcotest.(check bool) "fresh again" false (Ss.entry_stale c ~now:13.0)

(* A router's entry is its channel state: sweep keeps it while it holds
   a live table and gives [None] once nothing is left. *)
let test_tables_sweep () =
  let m = Ss.Table.create () in
  ignore (Ss.Table.add_fresh m dl ~now:0.0 5);
  let fwd = Hbh.Tables.Forwarding m in
  Alcotest.(check bool) "branching" true (is_branching fwd);
  Alcotest.(check bool)
    "swept away" true
    (Hbh.Tables.sweep fwd ~now:30.0 = None);
  Alcotest.(check int) "no entries" 0 (Hbh.Tables.mft_entry_count fwd);
  let ctl = Hbh.Tables.Control (Ss.entry dl ~now:0.0 4) in
  Alcotest.(check bool)
    "live MCT kept" true
    (match Hbh.Tables.sweep ctl ~now:20.0 with
    | Some s -> s == ctl
    | None -> false);
  Alcotest.(check bool)
    "dead MCT gone" true
    (Hbh.Tables.sweep ctl ~now:30.0 = None)

(* ---- Analytic -------------------------------------------------------------- *)

let test_shortest_path_property () =
  for seed = 1 to 15 do
    let s = isp_scenario seed 8 in
    let g = Routing.Table.graph s.table in
    let d = Hbh.Analytic.build s.table ~source:s.source ~receivers:s.receivers in
    List.iter
      (fun r ->
        let shortest =
          Routing.Path.delay g (Routing.Table.path s.table s.source r)
        in
        Alcotest.(check (option (float 1e-9)))
          (Printf.sprintf "seed %d receiver %d shortest delay" seed r)
          (Some shortest)
          (Mcast.Distribution.delay d r))
      s.receivers
  done

let test_one_copy_per_link () =
  for seed = 1 to 15 do
    let s = isp_scenario (30 + seed) 12 in
    let d = Hbh.Analytic.build s.table ~source:s.source ~receivers:s.receivers in
    Alcotest.(check int) "stress 1" 1 (Mcast.Distribution.max_stress d);
    Alcotest.(check int) "cost = distinct links" (Mcast.Distribution.links_used d)
      (Mcast.Distribution.cost d)
  done

let test_join_order_independence () =
  let s = isp_scenario 50 8 in
  let d1 = Hbh.Analytic.build s.table ~source:s.source ~receivers:s.receivers in
  let d2 =
    Hbh.Analytic.build s.table ~source:s.source
      ~receivers:(List.rev s.receivers)
  in
  Alcotest.(check bool) "same tree both orders" true
    (Mcast.Distribution.equal_shape d1 d2)

let test_delay_never_above_pim_ss () =
  for seed = 1 to 15 do
    let s = isp_scenario (60 + seed) 10 in
    let hbh = Hbh.Analytic.build s.table ~source:s.source ~receivers:s.receivers in
    let ss = Pim.Pim_ss.build s.table ~source:s.source ~receivers:s.receivers in
    List.iter
      (fun r ->
        let dh = Option.get (Mcast.Distribution.delay hbh r) in
        let ds = Option.get (Mcast.Distribution.delay ss r) in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d receiver %d" seed r)
          true (dh <= ds +. 1e-9))
      s.receivers
  done

let test_no_duplication_in_fig3 () =
  Alcotest.(check int) "one copy on the shared link" 1
    (Dup.hbh_copies_on_shared_link ());
  Alcotest.(check int) "HBH cost 6" 6 (Dup.hbh_cost ())

let test_branching_nodes () =
  let tbl = Dup.table () in
  let links =
    Hbh.Analytic.tree_links tbl ~source:Dup.source ~receivers:[ Dup.r1; Dup.r2 ]
  in
  (* Nodes with two or more outgoing union links: the MFT holders. *)
  let nodes =
    List.sort_uniq compare (List.map fst links)
    |> List.filter (fun u ->
           List.length (List.filter (fun (x, _) -> x = u) links) > 1)
  in
  (* The two flows diverge at R6 (node 6) only. *)
  Alcotest.(check (list int)) "divergence at R6" [ 6 ] nodes

let test_analytic_state () =
  let tbl = Dup.table () in
  let st =
    Hbh.Analytic.state tbl ~source:Dup.source ~receivers:[ Dup.r1; Dup.r2 ]
  in
  Alcotest.(check int) "one branching router" 1 st.Mcast.Metrics.branching_routers;
  Alcotest.(check int) "two forwarding entries at it" 2 st.mft_entries;
  Alcotest.(check bool) "control elsewhere" true (st.mct_entries >= 1)

let test_constrained_equals_ideal_when_all_capable () =
  for seed = 1 to 10 do
    let s = isp_scenario (80 + seed) 10 in
    let a = Hbh.Analytic.build s.table ~source:s.source ~receivers:s.receivers in
    let b =
      Hbh.Analytic.build_constrained s.table ~source:s.source
        ~receivers:s.receivers
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d identical" seed)
      true
      (Mcast.Distribution.equal_shape a b)
  done

let test_constrained_duplicates_at_incapable_divergence () =
  let tbl = Dup.table () in
  let g = Routing.Table.graph tbl in
  (* Make the unique branching point (R6) unicast-only: copies must
     now be created upstream, loading the shared segment twice. *)
  Topology.Graph.set_multicast_capable g 6 false;
  let tbl = Routing.Table.compute g in
  let d =
    Hbh.Analytic.build_constrained tbl ~source:Dup.source
      ~receivers:[ Dup.r1; Dup.r2 ]
  in
  let u, v = Dup.shared_link in
  Alcotest.(check int) "two copies through the unicast cloud" 2
    (Mcast.Distribution.copies d u v);
  (* Delays unchanged: still shortest paths. *)
  Alcotest.(check (option (float 0.0))) "r1 delay" (Some 4.0)
    (Mcast.Distribution.delay d Dup.r1);
  Topology.Graph.set_multicast_capable g 6 true

let test_constrained_cost_monotone_in_capability () =
  let s = isp_scenario 90 10 in
  let g = Routing.Table.graph s.table in
  let full =
    Mcast.Distribution.cost
      (Hbh.Analytic.build_constrained s.table ~source:s.source
         ~receivers:s.receivers)
  in
  List.iter (fun r -> Topology.Graph.set_multicast_capable g r false)
    (Topology.Graph.routers g);
  let none =
    Mcast.Distribution.cost
      (Hbh.Analytic.build_constrained s.table ~source:s.source
         ~receivers:s.receivers)
  in
  List.iter (fun r -> Topology.Graph.set_multicast_capable g r true)
    (Topology.Graph.routers g);
  Alcotest.(check bool) "no capability costs at least as much" true (none >= full)

(* ---- Event-driven protocol --------------------------------------------------- *)

let test_event_converges_on_detour () =
  let tbl = Det.table () in
  let session = Hbh.Protocol.create tbl ~source:Det.source in
  Hbh.Protocol.subscribe session Det.r1;
  Hbh.Protocol.subscribe session Det.r2;
  Hbh.Protocol.converge session;
  let d = Hbh.Protocol.probe session in
  let a = Hbh.Analytic.build tbl ~source:Det.source ~receivers:[ Det.r1; Det.r2 ] in
  Alcotest.(check bool) "event = analytic" true (Mcast.Distribution.equal_shape d a);
  Alcotest.(check (option (float 0.0))) "r2 served on shortest path" (Some 2.0)
    (Mcast.Distribution.delay d Det.r2)

let test_event_fig5_third_receiver () =
  (* The figure 5 walk-through: r3 (node 7) joins after r1/r2; fusion
     moves the branch to H3 and everyone still gets shortest-path
     delivery. *)
  let r3 = 7 in
  let tbl = Det.table () in
  let session = Hbh.Protocol.create tbl ~source:Det.source in
  Hbh.Protocol.subscribe session Det.r1;
  Hbh.Protocol.subscribe session Det.r2;
  Hbh.Protocol.converge session;
  Hbh.Protocol.subscribe session r3;
  Hbh.Protocol.converge session;
  let d = Hbh.Protocol.probe session in
  let a =
    Hbh.Analytic.build tbl ~source:Det.source
      ~receivers:[ Det.r1; Det.r2; r3 ]
  in
  Alcotest.(check bool) "converged to ideal" true (Mcast.Distribution.equal_shape d a);
  (* r1 and r3 share S->R1->R3; the branching node R3 (id 3) holds
     forwarding state. *)
  Alcotest.(check bool) "R3 is branching" true
    (List.exists
       (fun (n, st) -> n = 3 && is_branching st)
       (Hbh.Protocol.all_tables session))

let test_event_fusion_resolves_fig3 () =
  let tbl = Dup.table () in
  let session = Hbh.Protocol.create tbl ~source:Dup.source in
  Hbh.Protocol.subscribe session Dup.r1;
  Hbh.Protocol.subscribe session Dup.r2;
  Hbh.Protocol.converge session;
  let d = Hbh.Protocol.probe session in
  let u, v = Dup.shared_link in
  Alcotest.(check int) "single copy after fusion" 1 (Mcast.Distribution.copies d u v);
  Alcotest.(check int) "cost 6" 6 (Mcast.Distribution.cost d)

(* Figure 3 with staggered joins: once r2's tree converges on R1, R1
   sends data to R6 (the new branching node) but trees still to both
   receivers, whose entries R6's fusion marked; R6 copies data to
   both, and the source sends only to R1.  R1 keeps its MFT with a
   single data target instead of reverting to an MCT (DESIGN.md §6b). *)
let test_event_staggered_fig3_targets () =
  let session = Hbh.Protocol.create (Dup.table ()) ~source:Dup.source in
  Hbh.Protocol.subscribe session Dup.r1;
  Hbh.Protocol.converge session;
  Hbh.Protocol.subscribe session Dup.r2;
  Hbh.Protocol.converge session;
  let now = Eventsim.Engine.now (Hbh.Protocol.engine session) in
  let mft n =
    match List.assoc_opt n (Hbh.Protocol.all_tables session) with
    | Some (Hbh.Tables.Forwarding mft) -> mft
    | _ -> Alcotest.failf "router %d holds no forwarding table" n
  in
  Alcotest.(check (list int)) "R1 data targets" [ 6 ]
    (Ss.Table.data_targets (mft 1) ~now);
  Alcotest.(check (list int)) "R1 tree targets" [ Dup.r1; Dup.r2 ]
    (Ss.Table.fresh_targets (mft 1) ~now);
  Alcotest.(check (list int)) "R6 data targets" [ Dup.r1; Dup.r2 ]
    (Ss.Table.data_targets (mft 6) ~now);
  Alcotest.(check (list int)) "source data targets" [ 1 ]
    (Ss.Table.data_targets (Hbh.Protocol.source_table session) ~now)

let test_event_random_isp_convergence () =
  for seed = 1 to 6 do
    let s = isp_scenario (700 + seed) ((2 * seed) + 2) in
    let session = Hbh.Protocol.create s.table ~source:s.source in
    List.iter (Hbh.Protocol.subscribe session) s.receivers;
    Hbh.Protocol.converge ~periods:20 session;
    let d = Hbh.Protocol.probe session in
    let a = Hbh.Analytic.build s.table ~source:s.source ~receivers:s.receivers in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d exact convergence" seed)
      true
      (Mcast.Distribution.equal_shape d a)
  done

let test_event_departure_prunes_branch () =
  let tbl = Det.table () in
  let session = Hbh.Protocol.create tbl ~source:Det.source in
  Hbh.Protocol.subscribe session Det.r1;
  Hbh.Protocol.subscribe session Det.r2;
  Hbh.Protocol.converge session;
  let before = Hbh.Protocol.probe session in
  Hbh.Protocol.unsubscribe session Det.r2;
  Hbh.Protocol.run_for session 2000.0;
  let after = Hbh.Protocol.probe session in
  Alcotest.(check (list int)) "r1 remains" [ Det.r1 ]
    (Mcast.Distribution.receivers after);
  (* Stability: r1's delay must not change when r2 leaves. *)
  Alcotest.(check (option (float 0.0))) "r1 delay unchanged"
    (Mcast.Distribution.delay before Det.r1)
    (Mcast.Distribution.delay after Det.r1)

let test_event_full_depletion () =
  let tbl = Det.table () in
  let session = Hbh.Protocol.create tbl ~source:Det.source in
  Hbh.Protocol.subscribe session Det.r1;
  Hbh.Protocol.subscribe session Det.r2;
  Hbh.Protocol.converge session;
  Hbh.Protocol.unsubscribe session Det.r1;
  Hbh.Protocol.unsubscribe session Det.r2;
  Hbh.Protocol.run_for session 3000.0;
  Alcotest.(check int) "all state drained" 0
    (List.length (Hbh.Protocol.all_tables session))

let test_event_rejoin_after_silence () =
  (* A receiver whose state is wiped re-joins through the first-join
     rule (liveness safety valve). *)
  let tbl = Det.table () in
  let session = Hbh.Protocol.create tbl ~source:Det.source in
  Hbh.Protocol.subscribe session Det.r1;
  Hbh.Protocol.converge ~periods:30 session;
  let d = Hbh.Protocol.probe session in
  Alcotest.(check (list int)) "still served after long run" [ Det.r1 ]
    (Mcast.Distribution.receivers d)

let test_event_unicast_cloud_transparent () =
  (* Disable the branching router: HBH must still deliver (copies made
     upstream), demonstrating the incremental-deployment property. *)
  let g = Routing.Table.graph (Dup.table ()) in
  Topology.Graph.set_multicast_capable g 6 false;
  let tbl = Routing.Table.compute g in
  let session = Hbh.Protocol.create tbl ~source:Dup.source in
  Hbh.Protocol.subscribe session Dup.r1;
  Hbh.Protocol.subscribe session Dup.r2;
  Hbh.Protocol.converge ~periods:20 session;
  let d = Hbh.Protocol.probe session in
  Alcotest.(check (list int)) "both served through the cloud"
    [ Dup.r1; Dup.r2 ]
    (Mcast.Distribution.receivers d);
  let u, v = Dup.shared_link in
  Alcotest.(check int) "upstream duplication" 2 (Mcast.Distribution.copies d u v)

let test_event_two_channels_share_network () =
  (* Two sources multicast concurrently over one network (the EXPRESS
     M-to-N model as M channels); each converges to its own ideal tree
     without disturbing the other. *)
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 77 in
  Workload.Scenario.randomize rng g;
  let tbl = Routing.Table.compute g in
  let mx =
    Hbh.Protocol.mux (Netsim.Network.create (Eventsim.Engine.create ()) tbl)
  in
  let a = Hbh.Protocol.create_mux mx ~source:18 in
  let b = Hbh.Protocol.create_mux mx ~source:27 in
  let recv_a = [ 20; 25; 30 ] and recv_b = [ 21; 25; 33 ] in
  List.iter (Hbh.Protocol.subscribe a) recv_a;
  List.iter (Hbh.Protocol.subscribe b) recv_b;
  Hbh.Protocol.converge ~periods:20 a;
  (* One shared engine: converging [a] converged [b] too. *)
  let da = Hbh.Protocol.probe a in
  Alcotest.(check bool) "channel A ideal" true
    (Mcast.Distribution.equal_shape da
       (Hbh.Analytic.build tbl ~source:18 ~receivers:recv_a));
  let db = Hbh.Protocol.probe b in
  Alcotest.(check bool) "channel B ideal" true
    (Mcast.Distribution.equal_shape db
       (Hbh.Analytic.build tbl ~source:27 ~receivers:recv_b));
  (* The shared receiver 25 is served by both channels. *)
  Alcotest.(check bool) "25 in both" true
    (List.mem 25 (Mcast.Distribution.receivers da)
    && List.mem 25 (Mcast.Distribution.receivers db))

let test_event_subscribe_validation () =
  let tbl = Det.table () in
  let session = Hbh.Protocol.create tbl ~source:Det.source in
  Alcotest.(check bool) "source cannot subscribe" true
    (try
       Hbh.Protocol.subscribe session Det.source;
       false
     with Invalid_argument _ -> true);
  Hbh.Protocol.subscribe session Det.r1;
  Hbh.Protocol.subscribe session Det.r1;
  Alcotest.(check (list int)) "idempotent" [ Det.r1 ] (Hbh.Protocol.members session)

let test_event_config_validation () =
  let tbl = Det.table () in
  Alcotest.(check bool) "t2 <= t1 rejected" true
    (try
       ignore
         (Hbh.Protocol.create
            ~config:{ Hbh.Protocol.default_config with t1 = 5.0; t2 = 4.0 }
            tbl ~source:Det.source);
       false
     with Invalid_argument _ -> true)

(* ---- The aggregation claim (Section 4.1) ---------------------------------- *)

(* The experiments attach one receiver host per border router and do not
   simulate the LAN behind it; this pins why that loses nothing. *)

let test_extra_receivers_behind_one_router_cost_only_stubs () =
  (* Section 4.1: "The presence of one or many receivers attached to a
     border router ... does not influence the cost of the tree" —
     additional members behind an already-subscribed router add only
     their own access stubs; the network tree is untouched. *)
  let b = Topology.Builder.create () in
  ignore (Topology.Builder.add_routers b 18);
  List.iter
    (fun (u, v) -> Topology.Builder.add_link b u v ())
    [ (* reuse the ISP wiring shape: two-level backbone *)
      (0, 12); (0, 13); (1, 13); (1, 14); (2, 14); (2, 15); (3, 15); (3, 16);
      (4, 16); (4, 17); (5, 17); (5, 12); (6, 12); (6, 13); (7, 13); (7, 14);
      (8, 14); (8, 15); (9, 15); (9, 16); (10, 16); (10, 17); (11, 17); (11, 12);
      (12, 13); (13, 14); (14, 15); (15, 16); (16, 17); (17, 12);
    ];
  Topology.Builder.attach_host_per_router b;
  (* Three extra hosts behind router 5. *)
  let extras =
    List.init 3 (fun _ -> Topology.Builder.add_host b ~router:5 ())
  in
  let g = Topology.Builder.build b in
  let rng = Stats.Rng.create 4 in
  Topology.Graph.randomize_costs g rng ~lo:1 ~hi:10;
  let table = Routing.Table.compute g in
  let source = 18 (* host of router 0 *) in
  let r5_host = 23 (* original host of router 5 *) in
  let base =
    Hbh.Analytic.build table ~source ~receivers:[ r5_host; 25; 30 ]
  in
  let crowded =
    Hbh.Analytic.build table ~source ~receivers:((r5_host :: extras) @ [ 25; 30 ])
  in
  (* Cost grows exactly by the extra access links, nothing else. *)
  Alcotest.(check int) "only stub links added"
    (Mcast.Distribution.cost base + List.length extras)
    (Mcast.Distribution.cost crowded);
  (* Every network link carries the same load in both trees. *)
  List.iter
    (fun ((u, v), n) ->
      if Topology.Graph.is_router g u && Topology.Graph.is_router g v then
        Alcotest.(check int)
          (Printf.sprintf "network link %d->%d" u v)
          n
          (Mcast.Distribution.copies crowded u v))
    (Mcast.Distribution.link_loads base)

let () =
  Alcotest.run "hbh"
    [
      ( "tables",
        [
          Alcotest.test_case "mft lifecycle" `Quick test_mft_lifecycle;
          Alcotest.test_case "marked semantics" `Quick test_mft_marked_semantics;
          Alcotest.test_case "refresh keeps mark" `Quick test_mft_refresh_preserves_mark;
          Alcotest.test_case "fusion add_stale" `Quick test_mft_fusion_add_stale;
          Alcotest.test_case "mct lifecycle" `Quick test_mct_lifecycle;
          Alcotest.test_case "sweep" `Quick test_tables_sweep;
        ] );
      ( "analytic",
        [
          Alcotest.test_case "shortest-path delays" `Quick test_shortest_path_property;
          Alcotest.test_case "one copy per link" `Quick test_one_copy_per_link;
          Alcotest.test_case "join-order independent" `Quick test_join_order_independence;
          Alcotest.test_case "beats PIM-SS delay" `Quick test_delay_never_above_pim_ss;
          Alcotest.test_case "fig 3 resolved" `Quick test_no_duplication_in_fig3;
          Alcotest.test_case "branching nodes" `Quick test_branching_nodes;
          Alcotest.test_case "state" `Quick test_analytic_state;
        ] );
      ( "constrained",
        [
          Alcotest.test_case "equals ideal when capable" `Quick
            test_constrained_equals_ideal_when_all_capable;
          Alcotest.test_case "incapable divergence duplicates" `Quick
            test_constrained_duplicates_at_incapable_divergence;
          Alcotest.test_case "cost monotone" `Quick test_constrained_cost_monotone_in_capability;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "detour convergence" `Quick test_event_converges_on_detour;
          Alcotest.test_case "fig 5 third receiver" `Quick test_event_fig5_third_receiver;
          Alcotest.test_case "fig 3 fusion" `Quick test_event_fusion_resolves_fig3;
          Alcotest.test_case "random ISP convergence" `Quick test_event_random_isp_convergence;
          Alcotest.test_case "departure prunes" `Quick test_event_departure_prunes_branch;
          Alcotest.test_case "full depletion" `Quick test_event_full_depletion;
          Alcotest.test_case "long-run liveness" `Quick test_event_rejoin_after_silence;
          Alcotest.test_case "unicast cloud" `Quick test_event_unicast_cloud_transparent;
          Alcotest.test_case "two channels, one network" `Quick
            test_event_two_channels_share_network;
          Alcotest.test_case "subscribe validation" `Quick test_event_subscribe_validation;
          Alcotest.test_case "config validation" `Quick test_event_config_validation;
          Alcotest.test_case "staggered fig 3 targets" `Quick
            test_event_staggered_fig3_targets;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "extra members cost only stubs" `Quick
            test_extra_receivers_behind_one_router_cost_only_stubs;
        ] );
    ]
