(* Tests for workload generation: scenario draws and churn
   schedules. *)

let test_scenario_receivers_valid () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 1 in
  let s =
    Workload.Scenario.make rng g ~source:Topology.Isp.source
      ~candidates:Topology.Isp.receiver_hosts ~n:8
  in
  Alcotest.(check int) "eight receivers" 8 (List.length s.receivers);
  Alcotest.(check int) "distinct" 8
    (List.length (List.sort_uniq compare s.receivers));
  List.iter
    (fun r ->
      Alcotest.(check bool) "candidate" true
        (List.mem r Topology.Isp.receiver_hosts))
    s.receivers

let test_scenario_deterministic () =
  let mk () =
    let g = Topology.Isp.create () in
    let rng = Stats.Rng.create 7 in
    Workload.Scenario.make rng g ~source:Topology.Isp.source
      ~candidates:Topology.Isp.receiver_hosts ~n:5
  in
  let a = mk () and b = mk () in
  Alcotest.(check (list int)) "same receivers" a.receivers b.receivers;
  Alcotest.(check int) "same distances"
    (Routing.Table.distance a.table 0 17)
    (Routing.Table.distance b.table 0 17)

let test_scenario_too_many_receivers () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 1 in
  Alcotest.(check bool) "n > candidates rejected" true
    (try
       ignore
         (Workload.Scenario.make rng g ~source:Topology.Isp.source
            ~candidates:Topology.Isp.receiver_hosts ~n:18);
       false
     with Invalid_argument _ -> true)

let test_scenario_cost_range () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 2 in
  Workload.Scenario.randomize rng g;
  List.iter
    (fun (l : Topology.Graph.link) ->
      Alcotest.(check bool) "within paper range" true
        (l.cost_uv >= 1 && l.cost_uv <= 10))
    (Topology.Graph.links g)

(* ---- Churn ----------------------------------------------------------------- *)

(* [n] receivers join, one every [spacing] time units starting at
   [spacing], in random order; nobody leaves. *)
let flash_crowd rng ~candidates ~n ~spacing =
  let picked = Workload.Scenario.pick_receivers rng ~candidates ~n in
  List.mapi (fun i r -> (spacing *. float_of_int (i + 1), Workload.Churn.Join r)) picked

let test_flash_crowd () =
  let rng = Stats.Rng.create 3 in
  let sched = flash_crowd rng ~candidates:[ 10; 11; 12; 13 ] ~n:3 ~spacing:5.0 in
  Alcotest.(check int) "three events" 3 (List.length sched);
  List.iteri
    (fun i (t, ev) ->
      Alcotest.(check (float 0.0)) "spaced" (5.0 *. float_of_int (i + 1)) t;
      match ev with
      | Workload.Churn.Join _ -> ()
      | Workload.Churn.Leave _ -> Alcotest.fail "no leaves in a flash crowd")
    sched

let test_poisson_consistency () =
  let rng = Stats.Rng.create 4 in
  let sched =
    Workload.Churn.poisson rng ~candidates:(List.init 10 (fun i -> 100 + i))
      ~rate:0.5 ~mean_hold:10.0 ~horizon:200.0
  in
  (* Events are time ordered and membership-consistent: no double
     join, no leave of a non-member. *)
  let rec check members last = function
    | [] -> ()
    | (t, ev) :: rest ->
        Alcotest.(check bool) "ordered" true (t >= last);
        Alcotest.(check bool) "within horizon" true (t <= 200.0);
        (match ev with
        | Workload.Churn.Join r ->
            Alcotest.(check bool) "not already member" false (List.mem r members);
            check (r :: members) t rest
        | Workload.Churn.Leave r ->
            Alcotest.(check bool) "was member" true (List.mem r members);
            check (List.filter (fun m -> m <> r) members) t rest)
  in
  Alcotest.(check bool) "schedule non-trivial" true (List.length sched > 5);
  check [] 0.0 sched

let test_members_at () =
  let sched =
    [
      (1.0, Workload.Churn.Join 5);
      (2.0, Workload.Churn.Join 6);
      (3.0, Workload.Churn.Leave 5);
    ]
  in
  Alcotest.(check (list int)) "after t=2" [ 5; 6 ] (Workload.Churn.members_at sched 2.5);
  Alcotest.(check (list int)) "after t=3" [ 6 ] (Workload.Churn.members_at sched 3.0);
  Alcotest.(check (list int)) "before anything" [] (Workload.Churn.members_at sched 0.5)

let prop_poisson_leaves_match_joins =
  QCheck.Test.make ~name:"every leave follows its join" ~count:50
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let sched =
        Workload.Churn.poisson rng
          ~candidates:(List.init 5 (fun i -> i))
          ~rate:1.0 ~mean_hold:5.0 ~horizon:100.0
      in
      let ok = ref true in
      let members = ref [] in
      List.iter
        (fun (_, ev) ->
          match ev with
          | Workload.Churn.Join r ->
              if List.mem r !members then ok := false;
              members := r :: !members
          | Workload.Churn.Leave r ->
              if not (List.mem r !members) then ok := false;
              members := List.filter (fun m -> m <> r) !members)
        sched;
      !ok)

(* ---- Zipf popularity -------------------------------------------------- *)

(* A rank drawn by inverse CDF over the pmf. *)
let zipf_sample z rng =
  let u = Stats.Rng.float rng 1.0 and last = Workload.Zipf.n z - 1 in
  let rec go k acc =
    let acc = acc +. Workload.Zipf.pmf z k in
    if k = last || acc > u then k else go (k + 1) acc
  in
  go 0 0.0

let test_zipf_determinism () =
  let z = Workload.Zipf.create ~n:64 () in
  let draw seed =
    let rng = Stats.Rng.create seed in
    List.init 200 (fun _ -> zipf_sample z rng)
  in
  Alcotest.(check (list int)) "same rng, same ranks" (draw 7) (draw 7);
  Alcotest.(check bool) "different rng differs" true (draw 7 <> draw 8)

let test_zipf_rank_frequency () =
  let n = 32 in
  let z = Workload.Zipf.create ~n () in
  (* pmf sums to 1 and decreases with rank. *)
  let total = ref 0.0 in
  for k = 0 to n - 1 do
    total := !total +. Workload.Zipf.pmf z k;
    if k > 0 then
      Alcotest.(check bool) "pmf monotone" true
        (Workload.Zipf.pmf z k <= Workload.Zipf.pmf z (k - 1))
  done;
  Alcotest.(check bool) "pmf sums to ~1" true (abs_float (!total -. 1.0) < 1e-9);
  (* Empirical rank frequency: rank 0 beats rank n-1 decisively. *)
  let rng = Stats.Rng.create 3 in
  let counts = Array.make n 0 in
  for _ = 1 to 20_000 do
    let k = zipf_sample z rng in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 is hottest" true
    (Array.for_all (fun c -> c <= counts.(0)) counts);
  Alcotest.(check bool) "head ~ 1/H_n share" true
    (let p0 = float_of_int counts.(0) /. 20_000.0 in
     abs_float (p0 -. Workload.Zipf.pmf z 0) < 0.02)

let test_zipf_uniform_when_s0 () =
  let z = Workload.Zipf.create ~s:0.0 ~n:10 () in
  for k = 0 to 9 do
    Alcotest.(check bool) "uniform pmf" true
      (abs_float (Workload.Zipf.pmf z k -. 0.1) < 1e-9)
  done

(* ---- Multi-channel churn ---------------------------------------------- *)

(* The merged stream's events for one channel, in stream order. *)
let project merged c =
  List.filter_map (fun (t, c', ev) -> if c' = c then Some (t, ev) else None) merged

let test_multi_projection_consistency () =
  (* The merged stream projected onto channel c must be exactly the
     standalone stream of c's derived rng — per channel, members_at
     agrees at every event time. *)
  let channels = 8 in
  let candidates = List.init 20 (fun i -> 100 + i) in
  let z = Workload.Zipf.create ~n:channels () in
  let merged =
    Workload.Churn.multi ~seed:42 ~channels ~candidates ~rate:0.05
      ~popularity:z ~mean_hold:300.0 ~horizon:5000.0
  in
  for c = 0 to channels - 1 do
    let standalone =
      Workload.Churn.poisson
        (Stats.Rng.derive ~seed:42 ~index:c)
        ~candidates
        ~rate:(0.05 *. Workload.Zipf.pmf z c)
        ~mean_hold:300.0 ~horizon:5000.0
    in
    let projected = project merged c in
    Alcotest.(check int)
      (Printf.sprintf "channel %d event count" c)
      (List.length standalone) (List.length projected);
    List.iter2
      (fun (t1, e1) (t2, e2) ->
        Alcotest.(check (float 0.0)) "event time" t1 t2;
        Alcotest.(check bool) "event" true (e1 = e2))
      standalone projected;
    List.iter
      (fun (t, _) ->
        Alcotest.(check (list int))
          (Printf.sprintf "members_at agree (channel %d)" c)
          (Workload.Churn.members_at standalone t)
          (Workload.Churn.members_at projected t))
      standalone
  done

let test_multi_deterministic_and_ordered () =
  let candidates = List.init 10 (fun i -> i) in
  let z = Workload.Zipf.create ~n:16 () in
  let mk () =
    Workload.Churn.multi ~seed:9 ~channels:16 ~candidates ~rate:0.1
      ~popularity:z ~mean_hold:200.0 ~horizon:2000.0
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "byte-identical rebuild" true (a = b);
  Alcotest.(check bool) "time-ordered" true
    (let rec ordered = function
       | (t1, c1, _) :: ((t2, c2, _) :: _ as rest) ->
           (t1 < t2 || (t1 = t2 && c1 <= c2)) && ordered rest
       | _ -> true
     in
     ordered a);
  Alcotest.(check bool) "nonempty" true (a <> [])

let prop_multi_projection =
  QCheck.Test.make ~name:"merged stream projects to standalone schedules"
    ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let channels = 6 in
      let candidates = List.init 8 (fun i -> i) in
      let z = Workload.Zipf.create ~n:channels () in
      let merged =
        Workload.Churn.multi ~seed ~channels ~candidates ~rate:0.2
          ~popularity:z ~mean_hold:50.0 ~horizon:500.0
      in
      List.for_all
        (fun c ->
          project merged c
          = Workload.Churn.poisson
              (Stats.Rng.derive ~seed ~index:c)
              ~candidates
              ~rate:(0.2 *. Workload.Zipf.pmf z c)
              ~mean_hold:50.0 ~horizon:500.0)
        (List.init channels (fun c -> c)))

(* ---- The O(log n) draws against the Set-based reference ----------------- *)

(* Random inputs from one seed: a candidate list of up to 16 entries
   over -3..20, unsorted and with duplicates (sometimes empty), a rate
   of 0.01..30, a mean hold of 0.1..1000 and a horizon of 1..400.  A
   few candidates at a high rate with long holds fill the group, so
   arrivals are lost. *)
let churn_inputs seed =
  let r = Stats.Rng.create seed in
  let candidates =
    List.init (Stats.Rng.int r 17) (fun _ -> Stats.Rng.int_in r (-3) 20)
  in
  let log_uniform lo hi =
    Float.exp (Float.log lo +. Stats.Rng.float r (Float.log hi -. Float.log lo))
  in
  let rate = log_uniform 0.01 30.0 in
  let mean_hold = log_uniform 0.1 1000.0 in
  let horizon = 1.0 +. Stats.Rng.float r 399.0 in
  (r, candidates, rate, mean_hold, horizon)

let prop_poisson_matches_reference =
  QCheck.Test.make ~name:"poisson = Set-based reference" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let _, candidates, rate, mean_hold, horizon = churn_inputs seed in
      Workload.Churn.poisson (Stats.Rng.create seed) ~candidates ~rate
        ~mean_hold ~horizon
      = Churn_reference.poisson (Stats.Rng.create seed) ~candidates ~rate
          ~mean_hold ~horizon)

let prop_multi_matches_reference =
  QCheck.Test.make ~name:"multi = merged Set-based reference streams"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let r, candidates, rate, mean_hold, horizon = churn_inputs seed in
      let channels = 1 + Stats.Rng.int r 8 in
      let popularity =
        Workload.Zipf.create ~s:(Stats.Rng.float r 1.5) ~n:channels ()
      in
      Workload.Churn.multi ~seed ~channels ~candidates ~rate ~popularity
        ~mean_hold ~horizon
      = Churn_reference.multi ~seed ~channels ~candidates ~rate ~popularity
          ~mean_hold ~horizon)

(* Two distinct candidates (listed three times over, out of order) at
   rate 5 with holds far past the horizon: both join early and about
   500 later arrivals are lost, each drawing nothing. *)
let test_full_group_matches_reference () =
  let candidates = [ 7; 3; 7; 3; 3; 7 ] in
  let sched rng = Workload.Churn.poisson rng ~candidates ~rate:5.0
      ~mean_hold:1e6 ~horizon:100.0
  in
  let got = sched (Stats.Rng.create 11) in
  Alcotest.(check (list int)) "both candidates join, once each" [ 3; 7 ]
    (List.sort compare
       (List.filter_map
          (function _, Workload.Churn.Join r -> Some r | _ -> None)
          got));
  Alcotest.(check bool) "equals the reference" true
    (got
    = Churn_reference.poisson (Stats.Rng.create 11) ~candidates ~rate:5.0
        ~mean_hold:1e6 ~horizon:100.0)

let () =
  Alcotest.run "workload"
    [
      ( "scenario",
        [
          Alcotest.test_case "receivers valid" `Quick test_scenario_receivers_valid;
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "too many receivers" `Quick test_scenario_too_many_receivers;
          Alcotest.test_case "cost range" `Quick test_scenario_cost_range;
        ] );
      ( "churn",
        [
          Alcotest.test_case "flash crowd" `Quick test_flash_crowd;
          Alcotest.test_case "poisson consistency" `Quick test_poisson_consistency;
          Alcotest.test_case "members_at" `Quick test_members_at;
          Alcotest.test_case "zipf deterministic" `Quick test_zipf_determinism;
          Alcotest.test_case "zipf rank frequency" `Quick
            test_zipf_rank_frequency;
          Alcotest.test_case "zipf uniform at s=0" `Quick
            test_zipf_uniform_when_s0;
          Alcotest.test_case "multi-channel projection" `Quick
            test_multi_projection_consistency;
          Alcotest.test_case "multi-channel deterministic" `Quick
            test_multi_deterministic_and_ordered;
          Alcotest.test_case "full group = reference" `Quick
            test_full_group_matches_reference;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_poisson_leaves_match_joins;
            prop_multi_projection;
            prop_poisson_matches_reference;
            prop_multi_matches_reference;
          ] );
    ]
