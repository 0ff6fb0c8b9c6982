(* The multicore determinism contract: sharding a sweep across domains
   must be invisible in the output.  Three layers are covered —
   [Stats.Parallel] (index-ordered results, exception propagation),
   the registry scoping that keeps concurrent runs from
   cross-contaminating [Obs.Metrics], and end-to-end byte equality of
   figures and fault experiments at every [jobs] value.  Plus the
   seed-derivation bugfix: run [i]'s draw stream is a pure function of
   [(seed, size, i)], independent of which runs precede it. *)

let metrics_json () =
  Obs.Json.to_string
    (Obs.Metrics.snapshot_to_json
       (Obs.Metrics.snapshot (Obs.Metrics.default ())))

(* ---- Stats.Parallel ----------------------------------------------------- *)

let test_map_order () =
  let r = Stats.Parallel.map ~jobs:4 17 (fun i -> i * i) in
  Alcotest.(check (array int))
    "results land at their own index"
    (Array.init 17 (fun i -> i * i))
    r

let test_map_more_jobs_than_work () =
  let r = Stats.Parallel.map ~jobs:8 3 (fun i -> -i) in
  Alcotest.(check (array int)) "jobs > n" [| 0; -1; -2 |] r

let test_map_exception () =
  match Stats.Parallel.map ~jobs:3 8 (fun i -> if i = 5 then failwith "boom" else i) with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure m -> Alcotest.(check string) "original exception" "boom" m

(* ---- Seed derivation ---------------------------------------------------- *)

let test_derive_pure () =
  let a = Stats.Rng.derive ~seed:42 ~index:7 in
  (* Unrelated draws from other derived streams must not disturb
     stream 7 — unlike [Rng.split], where the k-th child depends on
     every draw before it. *)
  let noise = Stats.Rng.derive ~seed:42 ~index:3 in
  for _ = 1 to 100 do
    ignore (Stats.Rng.float noise 1.0)
  done;
  let b = Stats.Rng.derive ~seed:42 ~index:7 in
  Alcotest.(check (list (float 0.0)))
    "stream 7 is a pure function of (seed, 7)"
    (List.init 8 (fun _ -> Stats.Rng.float a 1.0))
    (List.init 8 (fun _ -> Stats.Rng.float b 1.0))

let test_derive2_distinct () =
  let draws a b =
    let r = Stats.Rng.derive2 ~seed:1 ~a ~b in
    List.init 4 (fun _ -> Stats.Rng.float r 1.0)
  in
  Alcotest.(check bool) "(a,b) and (b,a) differ" true (draws 2 3 <> draws 3 2);
  Alcotest.(check bool) "(a,b) and (a,b+1) differ" true (draws 2 3 <> draws 2 4)

(* Satellite of the derive bugfix: a run's sample must not depend on
   which runs (or sizes) were computed before it.  The size-16 column
   of a [4; 16] sweep must equal the whole of a [16]-only sweep. *)
let test_run_independence () =
  let base = Experiments.Common.isp_config () in
  let seed = 11 and runs = 6 in
  let points_at ~x (r : Experiments.Common.result) =
    List.map
      (fun s -> (Stats.Series.name s, List.assoc x (Stats.Series.points s)))
      (Stats.Series.group_series r.cost)
  in
  let full =
    Experiments.Common.sweep ~runs ~seed { base with sizes = [ 4; 16 ] }
  in
  let solo =
    Experiments.Common.sweep ~runs ~seed { base with sizes = [ 16 ] }
  in
  List.iter2
    (fun (name, a) (name', b) ->
      Alcotest.(check string) "same protocol" name name';
      Alcotest.(check (float 0.0)) (name ^ " size-16 mean bit-identical") a b)
    (points_at ~x:16 full) (points_at ~x:16 solo)

let test_sweep_sample_pure () =
  let cfg = { (Experiments.Common.isp_config ()) with sizes = [ 8 ] } in
  let one () =
    let r = Experiments.Common.sweep ~runs:4 ~seed:5 cfg in
    Stats.Series.to_csv r.cost ^ Stats.Series.to_csv r.delay
  in
  Alcotest.(check string) "a sweep's samples are replayable" (one ()) (one ())

(* ---- Registry isolation across domains ---------------------------------- *)

let test_registry_isolation () =
  let regs = Array.init 2 (fun _ -> Obs.Metrics.create ()) in
  let counts = [| 10_000; 20_000 |] in
  let work i () =
    Obs.Metrics.with_registry regs.(i) (fun () ->
        let c = Obs.Metrics.hot_counter "iso.shared_name" in
        let h = Obs.Metrics.hot_histogram "iso.shared_histo" in
        for k = 1 to counts.(i) do
          Obs.Metrics.hot_incr c;
          Obs.Histo.observe (Obs.Metrics.bind_histogram h) (float_of_int (k land 7))
        done;
        Obs.Metrics.hot_value c)
  in
  let other = Domain.spawn (work 1) in
  let v0 = work 0 () in
  let v1 = Domain.join other in
  Alcotest.(check int) "domain 0 sees only its own incrs" counts.(0) v0;
  Alcotest.(check int) "domain 1 sees only its own incrs" counts.(1) v1;
  Array.iteri
    (fun i reg ->
      let s = Obs.Metrics.snapshot reg in
      Alcotest.(check (option int))
        (Printf.sprintf "registry %d counter uncontaminated" i)
        (Some counts.(i))
        (List.assoc_opt "iso.shared_name" s.Obs.Metrics.counters))
    regs

(* Owners bind their instruments when created (Obs.Metrics.bind): two
   domains, each building its own table, engine, network and HBH
   session inside its own registry scope, must each find exactly their
   own run in their own registry.  The engine and the network report
   the events and control hops directly; the cache hits and join
   messages are checked against the same run made alone, first, in a
   fresh registry.  The two runs differ in size, so a count landing in
   the wrong registry shows. *)
let test_owner_registry_isolation () =
  let keys =
    [
      "engine.events_fired";
      "net.ctl_hops";
      "routing.cache_hits";
      "proto.hbh.join_msgs";
    ]
  in
  let receivers = [| [ 19; 23; 27 ]; Topology.Isp.receiver_hosts |] in
  let run i reg =
    Obs.Metrics.with_registry reg (fun () ->
        let table = Routing.Table.compute (Topology.Isp.create ()) in
        let s = Hbh.Protocol.create table ~source:Topology.Isp.source in
        List.iter (Hbh.Protocol.subscribe s) receivers.(i);
        Hbh.Protocol.converge s;
        ( Eventsim.Engine.events_fired (Hbh.Protocol.engine s),
          (Netsim.Network.counters (Hbh.Protocol.network s))
            .Netsim.Network.control_hops ))
  in
  let values reg =
    let snap = Obs.Metrics.snapshot reg in
    List.map
      (fun k -> Option.value ~default:0 (List.assoc_opt k snap.Obs.Metrics.counters))
      keys
  in
  let alone =
    Array.init 2 (fun i ->
        let reg = Obs.Metrics.create () in
        let fired, ctl = run i reg in
        let v = values reg in
        Alcotest.(check (list int))
          (Printf.sprintf "run %d alone: its engine's events and hops" i)
          [ fired; ctl ]
          (List.filteri (fun k _ -> k < 2) v);
        v)
  in
  Alcotest.(check bool) "the two runs differ" true (alone.(0) <> alone.(1));
  let regs = Array.init 2 (fun _ -> Obs.Metrics.create ()) in
  let other = Domain.spawn (fun () -> run 1 regs.(1)) in
  let own = [| run 0 regs.(0); Domain.join other |] in
  Array.iteri
    (fun i reg ->
      let fired, ctl = own.(i) in
      match values reg with
      | [ events; hops; hits; joins ] ->
          Alcotest.(check int)
            (Printf.sprintf "registry %d: events = its engine's" i)
            fired events;
          Alcotest.(check int)
            (Printf.sprintf "registry %d: ctl hops = its network's" i)
            ctl hops;
          Alcotest.(check (list int))
            (Printf.sprintf "registry %d: the run made alone" i)
            alone.(i)
            [ events; hops; hits; joins ]
      | _ -> assert false)
    regs

(* ---- End-to-end: parallel == sequential, byte for byte ------------------ *)

let figure_csv (r : Experiments.Common.result) =
  Stats.Series.to_csv r.cost ^ "\n" ^ Stats.Series.to_csv r.delay

let prop_figures_jobs_equiv =
  QCheck.Test.make ~name:"figures: jobs=k byte-identical to sequential"
    ~count:3
    QCheck.(pair (int_range 0 1000) (oneofl [ 2; 4; 8 ]))
    (fun (seed, jobs) ->
      let seq = Experiments.Figures.isp ~runs:6 ~seed () in
      let seq_metrics = metrics_json () in
      let par = Experiments.Figures.isp ~runs:6 ~seed ~jobs () in
      let par_metrics = metrics_json () in
      figure_csv seq = figure_csv par && seq_metrics = par_metrics)

let prop_faults_jobs_equiv =
  QCheck.Test.make ~name:"faults: jobs=k byte-identical to sequential"
    ~count:2
    QCheck.(pair (int_range 0 1000) (oneofl [ 2; 4; 8 ]))
    (fun (seed, jobs) ->
      let render os = Format.asprintf "%a" Experiments.Faults.pp_outcomes os in
      let seq = fst (Experiments.Faults.run_observed ~seed ()) in
      let seq_metrics = metrics_json () in
      let par = fst (Experiments.Faults.run_observed ~seed ~jobs ()) in
      let par_metrics = metrics_json () in
      render seq = render par && seq_metrics = par_metrics)

(* Seed 970 is one of the seeds whose REUNITE crash case duplicates a
   probe without bound (an open defect).  The property above may draw
   it, so the case must stop at the event budget and say so, at any
   [jobs]. *)
let test_faults_runaway_terminates () =
  let run jobs =
    fst
      (Experiments.Faults.run_observed ~seed:970
         ~scenarios:[ Experiments.Faults.Crash ] ~protocols:[ Verif.Sut.Reunite ]
         ~jobs ())
  in
  let outcomes = run 1 in
  Alcotest.(check (list bool))
    "ISP crash runs away, RAND50 crash does not" [ true; false ]
    (List.map (fun (o : Experiments.Faults.outcome) -> o.runaway) outcomes);
  Alcotest.(check bool) "the row reads runaway" true
    (List.exists (List.mem "runaway") (List.map Experiments.Faults.row outcomes));
  let render os = Format.asprintf "%a" Experiments.Faults.pp_outcomes os in
  Alcotest.(check string) "jobs=2 renders the same" (render outcomes)
    (render (run 2))

(* At seed 64 REUNITE duplicates without bound on RAND50 with no fault
   at all, from the staggered joins on a live stream (an open defect),
   so the join-latency stream must stop at the event budget and say
   so. *)
let test_join_latency_runaway_terminates () =
  let jls =
    Experiments.Faults.measure_join_latency ~seed:64
      ~protocols:[ Verif.Sut.Reunite ] ()
  in
  Alcotest.(check (list bool))
    "ISP joins do not run away, RAND50 joins do" [ false; true ]
    (List.map (fun (jl : Experiments.Faults.join_latency) -> jl.jl_runaway) jls)

(* Timelines and monitors read state and schedule only their own
   timers, so the instrumented suite's rows equal the plain suite's. *)
let test_faults_instrument_read_only () =
  let rows os = List.map Experiments.Faults.row os in
  let plain = fst (Experiments.Faults.run_observed ~seed:42 ()) in
  let observed, obs =
    Experiments.Faults.run_observed ~seed:42
      ~instrument:
        { Experiments.Faults.i_timeline = Some 50.; i_monitor = true }
      ()
  in
  Alcotest.(check int) "24 cases" 24 (List.length plain);
  Alcotest.(check bool) "every case has a timeline and a monitor" true
    (List.length obs = 24
    && List.for_all
         (fun (c : Experiments.Faults.case_obs) ->
           c.c_timeline <> None && c.c_monitor <> None)
         obs);
  Alcotest.(check (list (list string))) "same rows" (rows plain) (rows observed)

let test_scaling_jobs_equiv () =
  let seq = Experiments.Scaling.connectivity ~runs:5 ~seed:9 () in
  let par = Experiments.Scaling.connectivity ~runs:5 ~seed:9 ~jobs:4 () in
  Alcotest.(check bool) "connectivity points identical" true (seq = par)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ( "parallel map",
        [
          Alcotest.test_case "index order" `Quick test_map_order;
          Alcotest.test_case "jobs > n" `Quick test_map_more_jobs_than_work;
          Alcotest.test_case "exception propagation" `Quick test_map_exception;
        ] );
      ( "seed derivation",
        [
          Alcotest.test_case "derive is order-free" `Quick test_derive_pure;
          Alcotest.test_case "derive2 separates axes" `Quick
            test_derive2_distinct;
          Alcotest.test_case "run independence" `Quick test_run_independence;
          Alcotest.test_case "sweep_sample pure" `Quick test_sweep_sample_pure;
        ] );
      ( "registry isolation",
        [
          Alcotest.test_case "two domains never cross-contaminate" `Quick
            test_registry_isolation;
          Alcotest.test_case "owners bind their own registry" `Quick
            test_owner_registry_isolation;
        ] );
      ( "jobs equivalence",
        (Alcotest.test_case "scaling jobs=4" `Quick test_scaling_jobs_equiv
         :: qsuite [ prop_figures_jobs_equiv; prop_faults_jobs_equiv ])
        @ [
            Alcotest.test_case "faults seed 970 stops a runaway" `Quick
              test_faults_runaway_terminates;
            Alcotest.test_case "join latency seed 64 stops a runaway" `Quick
              test_join_latency_runaway_terminates;
            Alcotest.test_case "faults instrumentation is read-only" `Quick
              test_faults_instrument_read_only;
          ] );
    ]
