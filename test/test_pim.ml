(* Tests for the PIM baselines: reverse-SPT source trees (PIM-SS) and
   RP-centered shared trees (PIM-SM). *)

module G = Topology.Graph

let diamond_hosts () =
  (* Routers 0-3 in a diamond with asymmetric corridors, source host 4
     on router 0, receiver hosts 5 (on 3) and 6 (on 1). *)
  G.make
    ~kinds:[| G.Router; G.Router; G.Router; G.Router; G.Host; G.Host; G.Host |]
    ~links:
      [
        (0, 1, 1, 9);
        (1, 3, 1, 9);
        (0, 2, 9, 1);
        (2, 3, 9, 1);
        (0, 4, 1, 1) (* source host *);
        (3, 5, 1, 1);
        (1, 6, 1, 1);
      ]

let isp_scenario seed n =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create seed in
  Workload.Scenario.make rng g ~source:Topology.Isp.source
    ~candidates:Topology.Isp.receiver_hosts ~n

(* ---- PIM-SS ------------------------------------------------------------ *)

let test_ss_uses_reverse_path () =
  let g = diamond_hosts () in
  let table = Routing.Table.compute g in
  let d = Pim.Pim_ss.build table ~source:4 ~receivers:[ 5 ] in
  (* Receiver 5's cheap path TO the source runs 5,3,2,0,4; data flows
     its reverse, so links (0,2) and (2,3) carry the copy even though
     the forward-cheap route is via 1. *)
  Alcotest.(check int) "copy on 0->2" 1 (Mcast.Distribution.copies d 0 2);
  Alcotest.(check int) "no copy on 0->1" 0 (Mcast.Distribution.copies d 0 1);
  (* Delay is paid in the forward direction of those links: 9 + 9 + 1
     + 1 (host links). *)
  Alcotest.(check (option (float 0.0))) "delay" (Some 20.0)
    (Mcast.Distribution.delay d 5)

let test_ss_rpf_one_copy_per_link () =
  for seed = 1 to 10 do
    let s = isp_scenario seed 10 in
    let d = Pim.Pim_ss.build s.table ~source:s.source ~receivers:s.receivers in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: stress 1" seed)
      1 (Mcast.Distribution.max_stress d);
    Alcotest.(check int) "cost = links" (Mcast.Distribution.links_used d)
      (Mcast.Distribution.cost d)
  done

let test_ss_all_receivers_served () =
  let s = isp_scenario 3 8 in
  let d = Pim.Pim_ss.build s.table ~source:s.source ~receivers:s.receivers in
  Alcotest.(check (list int)) "served" (List.sort compare s.receivers)
    (Mcast.Distribution.receivers d)

let test_ss_tree_links_form_tree () =
  let s = isp_scenario 5 12 in
  let links =
    List.map fst
      (Mcast.Distribution.link_loads
         (Pim.Pim_ss.build s.table ~source:s.source ~receivers:s.receivers))
  in
  (* In-degree of every node except the source is at most 1: a tree. *)
  let indeg = Hashtbl.create 16 in
  List.iter
    (fun (_, v) ->
      Hashtbl.replace indeg v (1 + Option.value ~default:0 (Hashtbl.find_opt indeg v)))
    links;
  Hashtbl.iter
    (fun v n ->
      if v <> s.source then Alcotest.(check int) "in-degree <= 1" 1 n)
    indeg

let test_ss_state_counts () =
  let s = isp_scenario 7 6 in
  let st = Pim.Pim_ss.state s.table ~source:s.source ~receivers:s.receivers in
  Alcotest.(check int) "no control entries" 0 st.Mcast.Metrics.mct_entries;
  Alcotest.(check bool) "every on-tree router has an entry" true
    (st.mft_entries = st.on_tree_routers);
  Alcotest.(check bool) "some state exists" true (st.mft_entries > 0)

(* ---- RP selection ------------------------------------------------------- *)

let test_rp_fixed () =
  let s = isp_scenario 1 4 in
  let rng = Stats.Rng.create 0 in
  Alcotest.(check int) "fixed" 9
    (Pim.Rp.select (Pim.Rp.Fixed 9) rng s.table ~source:s.source
       ~receivers:s.receivers);
  Alcotest.(check bool) "fixed host rejected" true
    (try
       ignore
         (Pim.Rp.select (Pim.Rp.Fixed 20) rng s.table ~source:s.source
            ~receivers:s.receivers);
       false
     with Invalid_argument _ -> true)

let test_rp_random_is_router () =
  let s = isp_scenario 1 4 in
  let rng = Stats.Rng.create 0 in
  for _ = 1 to 50 do
    let rp =
      Pim.Rp.select Pim.Rp.Random rng s.table ~source:s.source
        ~receivers:s.receivers
    in
    Alcotest.(check bool) "router" true
      (Topology.Graph.is_router (Routing.Table.graph s.table) rp)
  done

let test_rp_highest_degree () =
  let s = isp_scenario 1 4 in
  let rng = Stats.Rng.create 0 in
  let rp =
    Pim.Rp.select Pim.Rp.Highest_degree rng s.table ~source:s.source
      ~receivers:s.receivers
  in
  (* ISP cores are 12..17 with router degree 6 (+1 host); edges have
     2 (+1).  Ties break to the smallest id: 12. *)
  Alcotest.(check int) "core router" 12 rp

let test_rp_best_no_worse_than_worst () =
  for seed = 1 to 5 do
    let s = isp_scenario (40 + seed) 8 in
    let rng = Stats.Rng.create 0 in
    let delay_for strategy =
      let rp =
        Pim.Rp.select strategy rng s.table ~source:s.source ~receivers:s.receivers
      in
      let d = Pim.Pim_sm.build s.table ~source:s.source ~rp ~receivers:s.receivers in
      Mcast.Distribution.avg_delay d
    in
    Alcotest.(check bool) "best <= worst" true
      (delay_for Pim.Rp.Best_delay <= delay_for Pim.Rp.Worst_delay +. 1e-9)
  done

(* ---- PIM-SM -------------------------------------------------------------- *)

let test_sm_register_leg_counted () =
  let g = diamond_hosts () in
  let table = Routing.Table.compute g in
  (* RP at router 3: register path 4,0,1,3 (forward-cheap), shared
     tree serves receiver 5 below 3. *)
  let d = Pim.Pim_sm.build table ~source:4 ~rp:3 ~receivers:[ 5 ] in
  Alcotest.(check int) "register copy on 0->1" 1 (Mcast.Distribution.copies d 0 1);
  Alcotest.(check int) "tree copy on 3->5" 1 (Mcast.Distribution.copies d 3 5);
  (* Delay: register 1+1+1, then down-tree 1. *)
  Alcotest.(check (option (float 0.0))) "delay" (Some 4.0)
    (Mcast.Distribution.delay d 5)

let test_sm_shared_link_carries_two_copies () =
  (* Line 0 - 1 - 2 with source host on 0 and receiver host on 0 too:
     with the RP at 2, the register leg 0->1->2 and the native leg
     2->1->0 use the same wire in opposite directions; but a receiver
     behind router 1 shares the segment 0->1 in the same direction
     only if the join path crosses it.  Build a case where the shared
     tree reuses a register-leg link. *)
  let g =
    G.make
      ~kinds:[| G.Router; G.Router; G.Host; G.Host |]
      ~links:[ (0, 1, 1, 1); (0, 2, 1, 1) (* source *); (1, 3, 1, 1) ]
  in
  let table = Routing.Table.compute g in
  (* RP at 0: register leg 2->0; receiver 3 joins 0 via 1.  Native
     copies flow 0->1->3.  No overlap here; now RP at 1: register leg
     2->0->1; receiver's native leg 1->3.  Still no overlap — overlap
     needs the receiver's join path to use a register-leg link:
     receiver 3's join to RP=1 goes 3,1: data 1->3. *)
  let d = Pim.Pim_sm.build table ~source:2 ~rp:1 ~receivers:[ 3 ] in
  Alcotest.(check int) "cost: register 2 links + tree 1 link" 3
    (Mcast.Distribution.cost d)

let test_sm_worse_than_ss_cost_on_average () =
  (* The paper's expectation: shared trees cost at least as much as
     source trees on average (register leg + non-source-rooted tree). *)
  let sm = Stats.Summary.create () and ss = Stats.Summary.create () in
  for seed = 1 to 40 do
    let s = isp_scenario (100 + seed) 8 in
    let rng = Stats.Rng.create seed in
    let rp =
      Pim.Rp.select Pim.Rp.Random rng s.table ~source:s.source
        ~receivers:s.receivers
    in
    Stats.Summary.add_int sm
      (Mcast.Distribution.cost
         (Pim.Pim_sm.build s.table ~source:s.source ~rp ~receivers:s.receivers));
    Stats.Summary.add_int ss
      (Mcast.Distribution.cost
         (Pim.Pim_ss.build s.table ~source:s.source ~receivers:s.receivers))
  done;
  Alcotest.(check bool) "SM costs more on average" true
    (Stats.Summary.mean sm > Stats.Summary.mean ss)

let test_sm_all_receivers_served () =
  let s = isp_scenario 9 12 in
  let d = Pim.Pim_sm.build s.table ~source:s.source ~rp:12 ~receivers:s.receivers in
  Alcotest.(check (list int)) "served" (List.sort compare s.receivers)
    (Mcast.Distribution.receivers d)

let test_sm_state () =
  let s = isp_scenario 11 6 in
  let st = Pim.Pim_sm.state s.table ~rp:12 ~receivers:s.receivers in
  Alcotest.(check bool) "rp holds state" true (st.Mcast.Metrics.on_tree_routers >= 1);
  Alcotest.(check int) "no mct" 0 st.mct_entries

let () =
  Alcotest.run "pim"
    [
      ( "pim-ss",
        [
          Alcotest.test_case "reverse path" `Quick test_ss_uses_reverse_path;
          Alcotest.test_case "RPF one copy per link" `Quick test_ss_rpf_one_copy_per_link;
          Alcotest.test_case "all served" `Quick test_ss_all_receivers_served;
          Alcotest.test_case "links form a tree" `Quick test_ss_tree_links_form_tree;
          Alcotest.test_case "state counts" `Quick test_ss_state_counts;
        ] );
      ( "rp",
        [
          Alcotest.test_case "fixed" `Quick test_rp_fixed;
          Alcotest.test_case "random yields router" `Quick test_rp_random_is_router;
          Alcotest.test_case "highest degree" `Quick test_rp_highest_degree;
          Alcotest.test_case "best beats worst" `Quick test_rp_best_no_worse_than_worst;
        ] );
      ( "pim-sm",
        [
          Alcotest.test_case "register leg" `Quick test_sm_register_leg_counted;
          Alcotest.test_case "cost accounting" `Quick test_sm_shared_link_carries_two_copies;
          Alcotest.test_case "costlier than SS" `Quick test_sm_worse_than_ss_cost_on_average;
          Alcotest.test_case "all served" `Quick test_sm_all_receivers_served;
          Alcotest.test_case "state" `Quick test_sm_state;
        ] );
    ]
