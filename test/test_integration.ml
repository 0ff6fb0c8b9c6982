(* Integration tests: the evaluation pipeline end to end — small
   sweeps reproducing the paper's qualitative results, event-vs-
   analytic validation, stability and state experiments. *)

let small_isp runs = Experiments.Figures.isp ~runs ~seed:2026 ()
let small_rand runs = Experiments.Figures.rand50 ~runs ~seed:2026 ()

(* Shared tiny sweeps (computed once). *)
let isp = lazy (small_isp 60)
let rand = lazy (small_rand 30)

let series group name =
  match
    List.find_opt
      (fun s -> Stats.Series.name s = name)
      (Stats.Series.group_series group)
  with
  | Some s -> s
  | None -> Alcotest.failf "series %s missing" name

(* A series' x-values and its mean at one of them, read off its points. *)
let xs s = List.map fst (Stats.Series.points s)
let mean_at s ~x = List.assoc x (Stats.Series.points s)

let mean_over group name =
  let s = series group name in
  let pts = Stats.Series.points s in
  List.fold_left (fun acc (_, v) -> acc +. v) 0.0 pts
  /. float_of_int (List.length pts)

(* ---- Figure 7: tree cost -------------------------------------------------- *)

let test_fig7a_hbh_tracks_pim_ss () =
  let r = Lazy.force isp in
  let gap =
    Float.abs (mean_over r.cost "HBH" -. mean_over r.cost "PIM-SS")
    /. mean_over r.cost "PIM-SS"
  in
  Alcotest.(check bool) "HBH within 2% of PIM-SS cost" true (gap < 0.02)

let test_fig7a_reunite_costlier_than_hbh () =
  let r = Lazy.force isp in
  List.iter
    (fun x ->
      let re = mean_at (series r.cost "REUNITE") ~x in
      let hbh = mean_at (series r.cost "HBH") ~x in
      if x >= 6 then
        Alcotest.(check bool)
          (Printf.sprintf "REUNITE above HBH at n=%d" x)
          true (re > hbh))
    (xs (series r.cost "REUNITE"))

let test_fig7a_advantage_near_paper () =
  (* Paper: ~5% average cost advantage over REUNITE on the ISP
     topology.  Accept 2-12% for a 60-run sweep. *)
  let r = Lazy.force isp in
  let h = Experiments.Figures.headline r in
  Alcotest.(check bool)
    (Printf.sprintf "got %.1f%%" h.hbh_cost_advantage_pct)
    true
    (h.hbh_cost_advantage_pct > 2.0 && h.hbh_cost_advantage_pct < 12.0)

let test_fig7b_reunite_worst_at_scale () =
  (* Paper: on the dense 50-node topology REUNITE exceeds even PIM-SM
     for large groups. *)
  let r = Lazy.force rand in
  let re = mean_at (series r.cost "REUNITE") ~x:45 in
  let sm = mean_at (series r.cost "PIM-SM") ~x:45 in
  Alcotest.(check bool) "REUNITE above PIM-SM at n=45" true (re > sm)

let test_fig7b_advantage_near_paper () =
  (* Paper: ~18% cost advantage on the 50-node topology. *)
  let r = Lazy.force rand in
  let h = Experiments.Figures.headline r in
  Alcotest.(check bool)
    (Printf.sprintf "got %.1f%%" h.hbh_cost_advantage_pct)
    true
    (h.hbh_cost_advantage_pct > 12.0 && h.hbh_cost_advantage_pct < 26.0)

let test_fig7_cost_grows_with_group () =
  let check_growth group name =
    let pts = Stats.Series.points (series group name) in
    let rec mono = function
      | (_, a) :: ((_, b) :: _ as rest) -> a < b && mono rest
      | _ -> true
    in
    Alcotest.(check bool) (name ^ " grows") true (mono pts)
  in
  let r = Lazy.force isp in
  List.iter (check_growth r.cost) [ "PIM-SM"; "PIM-SS"; "REUNITE"; "HBH" ]

(* ---- Figure 8: delay -------------------------------------------------------- *)

let test_fig8_hbh_best_everywhere () =
  List.iter
    (fun (r : Experiments.Common.result) ->
      List.iter
        (fun x ->
          let hbh = mean_at (series r.delay "HBH") ~x in
          List.iter
            (fun other ->
              Alcotest.(check bool)
                (Printf.sprintf "HBH <= %s at n=%d" other x)
                true
                (hbh <= mean_at (series r.delay other) ~x +. 1e-9))
            [ "PIM-SM"; "PIM-SS"; "REUNITE" ])
        (xs (series r.delay "HBH")))
    [ Lazy.force isp; Lazy.force rand ]

let test_fig8b_pim_sm_worst () =
  let r = Lazy.force rand in
  List.iter
    (fun x ->
      let sm = mean_at (series r.delay "PIM-SM") ~x in
      List.iter
        (fun other ->
          Alcotest.(check bool)
            (Printf.sprintf "PIM-SM worst at n=%d vs %s" x other)
            true
            (sm >= mean_at (series r.delay other) ~x))
        [ "PIM-SS"; "REUNITE"; "HBH" ])
    (xs (series r.delay "PIM-SM"))

let test_fig8_delay_advantage_grows_with_connectivity () =
  (* Paper: HBH's delay advantage over REUNITE is larger on the dense
     topology (30% vs 14%). *)
  let a = Experiments.Figures.headline (Lazy.force isp) in
  let b = Experiments.Figures.headline (Lazy.force rand) in
  Alcotest.(check bool) "denser topology, bigger advantage" true
    (b.hbh_delay_advantage_pct > a.hbh_delay_advantage_pct)

(* ---- Validation ------------------------------------------------------------- *)

let test_validate_hbh_exact () =
  let o =
    Experiments.Validate.run ~scenarios:9 ~seed:5 Verif.Sut.Hbh
      (Experiments.Common.isp_config ())
  in
  Alcotest.(check int) "all exact" o.scenarios o.exact;
  Alcotest.(check int) "all delivered" o.scenarios o.delivered_all

let test_validate_reunite_delivers () =
  let o =
    Experiments.Validate.run ~scenarios:9 ~seed:5 Verif.Sut.Reunite
      (Experiments.Common.isp_config ())
  in
  Alcotest.(check int) "all delivered" o.scenarios o.delivered_all;
  Alcotest.(check bool) "mostly close to model" true
    (o.close * 2 >= o.scenarios)

(* ---- Stability ---------------------------------------------------------------- *)

let test_stability_hbh_no_route_changes () =
  let r = Experiments.Stability.run ~runs:30 ~seed:3 (Experiments.Common.isp_config ()) in
  List.iter
    (fun (_, (p : Experiments.Stability.point)) ->
      Alcotest.(check (float 0.0)) "HBH never reroutes survivors" 0.0
        p.routes_changed)
    r.hbh

let test_stability_reunite_reroutes () =
  let r = Experiments.Stability.run ~runs:30 ~seed:3 (Experiments.Common.isp_config ()) in
  let total =
    List.fold_left (fun acc (_, (p : Experiments.Stability.point)) -> acc +. p.routes_changed) 0.0 r.reunite
  in
  Alcotest.(check bool) "REUNITE reroutes some survivors" true (total > 0.0)

(* ---- State footprint ------------------------------------------------------------ *)

let test_state_minority_of_routers_branch () =
  (* The REUNITE/HBH scaling claim (Section 2.1): only a minority of
     on-tree routers are branching nodes needing forwarding state —
     classic multicast puts an entry in every one of them. *)
  let r = Experiments.State.run ~runs:30 ~seed:3 (Experiments.Common.isp_config ()) in
  List.iter
    (fun x ->
      let classic_routers = mean_at (series r.mft "PIM-SS") ~x in
      let hbh_branching = mean_at (series r.branching "HBH") ~x in
      Alcotest.(check bool)
        (Printf.sprintf "branching routers are a minority at n=%d" x)
        true
        (hbh_branching < classic_routers))
    (xs (series r.branching "HBH"));
  (* And at small group sizes even the entry count is lower. *)
  let classic = mean_at (series r.mft "PIM-SS") ~x:4 in
  let hbh = mean_at (series r.mft "HBH") ~x:4 in
  Alcotest.(check bool) "fewer forwarding entries at n=4" true (hbh < classic)

let test_state_hbh_has_control_entries () =
  let r = Experiments.State.run ~runs:10 ~seed:3 (Experiments.Common.isp_config ()) in
  let m = mean_over r.mct "HBH" in
  Alcotest.(check bool) "non-branching routers hold MCTs" true (m > 0.0)

(* ---- Ablations ---------------------------------------------------------------------- *)

let test_symmetry_ablation_collapses_gap () =
  (* The paper's thesis localized: REUNITE's penalty is caused by
     routing asymmetry, so symmetric costs must erase it. *)
  let r =
    Experiments.Ablations.symmetry ~runs:40 ~seed:9 (Experiments.Common.isp_config ())
  in
  let asym = Experiments.Figures.headline r.asymmetric in
  let sym = Experiments.Figures.headline r.symmetric in
  Alcotest.(check bool) "asymmetric delay gap exists" true
    (asym.hbh_delay_advantage_pct > 1.0);
  Alcotest.(check bool) "symmetric delay gap gone" true
    (Float.abs sym.hbh_delay_advantage_pct < 0.5);
  Alcotest.(check bool) "symmetric cost gap nearly gone" true
    (sym.hbh_cost_advantage_pct < asym.hbh_cost_advantage_pct /. 2.0)

let test_overhead_scales_with_group () =
  let points =
    Experiments.Ablations.overhead ~runs:2 ~seed:9 ~sizes:[ 2; 8 ]
      (Experiments.Common.isp_config ())
  in
  match points with
  | [ small; large ] ->
      Alcotest.(check (list string))
        "one entry per event-driven protocol" [ "hbh"; "reunite" ]
        (List.map (fun (p, _) -> Verif.Sut.name p) small.hops_per_period);
      List.iter2
        (fun (p, s) (p', l) ->
          let name = Verif.Sut.label p in
          Alcotest.(check bool) (name ^ ": same protocol order") true (p = p');
          Alcotest.(check bool) (name ^ ": traffic grows with the group") true
            (l > s);
          Alcotest.(check bool) (name ^ ": positive overhead") true (s > 0.0))
        small.hops_per_period large.hops_per_period
  | _ -> Alcotest.fail "expected two points"

let test_scaling_advantage_grows () =
  (* The paper's concluding claim: the advantage grows with larger and
     more connected networks. *)
  let conn =
    Experiments.Scaling.connectivity ~runs:40 ~seed:4 ~degrees:[ 3.0; 8.0 ] ()
  in
  (match conn with
  | [ sparse; dense ] ->
      Alcotest.(check bool) "more connected, bigger cost advantage" true
        (dense.cost_advantage_pct > sparse.cost_advantage_pct)
  | _ -> Alcotest.fail "expected two connectivity points");
  let sz = Experiments.Scaling.size ~runs:40 ~seed:4 ~sizes:[ 20; 100 ] () in
  match sz with
  | [ small; large ] ->
      Alcotest.(check bool) "larger network, bigger delay advantage" true
        (large.delay_advantage_pct > small.delay_advantage_pct)
  | _ -> Alcotest.fail "expected two size points"

(* ---- Scenario demos stay true ----------------------------------------------------- *)

let test_detour_gap_positive () =
  Alcotest.(check bool) "REUNITE detour costs delay" true
    (Experiments.Scenarios.Detour.delay_gap () > 0.0)

let test_asymmetry_report () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 12 in
  Workload.Scenario.randomize rng g;
  let table = Routing.Table.compute g in
  let r = Routing.Asymmetry.measure table in
  (* Paxson's motivation: a large share of routes are asymmetric. *)
  Alcotest.(check bool) "more than 30% asymmetric routes" true
    (r.asymmetric_fraction > 0.3)

(* Each probe drains 200 time units, so six probed channels take 1200
   of a 100-unit sampling interval.  A sample then starts where the
   previous one's probes ended: reported times never decrease, and no
   two samples' probe windows overlap. *)
let test_churn_samples_move_forward () =
  let params =
    {
      Experiments.Churn.default_params with
      routers = 60;
      channels = 8;
      rate = 0.2;
      horizon = 400.0;
      sample_every = 100.0;
    }
  in
  match
    Experiments.Churn.run ~protocols:[ Verif.Sut.Hbh ] ~arms:[ false ] ~params
      ~seed:42 ()
  with
  | [ o ] ->
      let samples = o.Experiments.Churn.o_samples in
      Alcotest.(check int) "one row per nominal instant" 4 (List.length samples);
      Alcotest.(check bool) "some sample probed two or more channels" true
        (List.exists
           (fun (s : Experiments.Churn.sample) -> s.s_probed >= 2)
           samples);
      let rec forward = function
        | (a : Experiments.Churn.sample) :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "t=%g (%d probed) then t=%g" a.s_time a.s_probed
                 b.s_time)
              true
              (b.s_time >= a.s_time +. (200.0 *. float_of_int a.s_probed));
            forward rest
        | _ -> ()
      in
      forward samples
  | os -> Alcotest.failf "expected one outcome, got %d" (List.length os)

let () =
  Alcotest.run "integration"
    [
      ( "figure7",
        [
          Alcotest.test_case "HBH ~ PIM-SS" `Slow test_fig7a_hbh_tracks_pim_ss;
          Alcotest.test_case "REUNITE costlier" `Slow test_fig7a_reunite_costlier_than_hbh;
          Alcotest.test_case "ISP advantage ~5%" `Slow test_fig7a_advantage_near_paper;
          Alcotest.test_case "rand50 REUNITE worst" `Slow test_fig7b_reunite_worst_at_scale;
          Alcotest.test_case "rand50 advantage ~18%" `Slow test_fig7b_advantage_near_paper;
          Alcotest.test_case "cost grows with group" `Slow test_fig7_cost_grows_with_group;
        ] );
      ( "figure8",
        [
          Alcotest.test_case "HBH best delay" `Slow test_fig8_hbh_best_everywhere;
          Alcotest.test_case "PIM-SM worst on rand50" `Slow test_fig8b_pim_sm_worst;
          Alcotest.test_case "advantage grows with connectivity" `Slow
            test_fig8_delay_advantage_grows_with_connectivity;
        ] );
      ( "validate",
        [
          Alcotest.test_case "HBH exact" `Slow test_validate_hbh_exact;
          Alcotest.test_case "REUNITE delivers" `Slow test_validate_reunite_delivers;
        ] );
      ( "stability",
        [
          Alcotest.test_case "HBH keeps routes" `Slow test_stability_hbh_no_route_changes;
          Alcotest.test_case "REUNITE reroutes" `Slow test_stability_reunite_reroutes;
        ] );
      ( "state",
        [
          Alcotest.test_case "branching minority" `Slow
            test_state_minority_of_routers_branch;
          Alcotest.test_case "control entries exist" `Slow test_state_hbh_has_control_entries;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "symmetry collapses the gap" `Slow
            test_symmetry_ablation_collapses_gap;
          Alcotest.test_case "overhead scales" `Slow test_overhead_scales_with_group;
          Alcotest.test_case "advantage grows with scale" `Slow
            test_scaling_advantage_grows;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "detour gap" `Quick test_detour_gap_positive;
          Alcotest.test_case "asymmetry report" `Quick test_asymmetry_report;
        ] );
      ( "churn",
        [
          Alcotest.test_case "sample clock only moves forward" `Quick
            test_churn_samples_move_forward;
        ] );
    ]
