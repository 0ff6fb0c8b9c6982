type protocol = Pim_sm | Pim_ss | Reunite | Hbh

let all_protocols = [ Pim_sm; Pim_ss; Reunite; Hbh ]

let protocol_name = function
  | Pim_sm -> "PIM-SM"
  | Pim_ss -> "PIM-SS"
  | Reunite -> "REUNITE"
  | Hbh -> "HBH"

let rp rp_strategy rng (s : Workload.Scenario.t) =
  Pim.Rp.select rp_strategy rng s.table ~source:s.source ~receivers:s.receivers

let build ?(rp_strategy = Pim.Rp.Highest_degree) protocol rng
    (s : Workload.Scenario.t) =
  match protocol with
  | Pim_sm ->
      let rp = rp rp_strategy rng s in
      Pim.Pim_sm.build s.table ~source:s.source ~rp ~receivers:s.receivers
  | Pim_ss -> Pim.Pim_ss.build s.table ~source:s.source ~receivers:s.receivers
  | Reunite -> Reunite.Analytic.build s.table ~source:s.source ~receivers:s.receivers
  | Hbh -> Hbh.Analytic.build s.table ~source:s.source ~receivers:s.receivers

let state protocol rng (s : Workload.Scenario.t) =
  match protocol with
  | Pim_sm ->
      let rp = rp Pim.Rp.Highest_degree rng s in
      Pim.Pim_sm.state s.table ~rp ~receivers:s.receivers
  | Pim_ss -> Pim.Pim_ss.state s.table ~source:s.source ~receivers:s.receivers
  | Reunite ->
      let t = Reunite.Analytic.create s.table ~source:s.source in
      List.iter (Reunite.Analytic.join t) s.receivers;
      Reunite.Analytic.state t
  | Hbh -> Hbh.Analytic.state s.table ~source:s.source ~receivers:s.receivers

type config = {
  label : string;
  graph : Topology.Graph.t;
  source : int;
  candidates : int list;
  sizes : int list;
}

let isp_config () =
  {
    label = "ISP topology";
    graph = Topology.Isp.create ();
    source = Topology.Isp.source;
    candidates = Topology.Isp.receiver_hosts;
    sizes = [ 2; 4; 6; 8; 10; 12; 14; 16 ];
  }

let rand50_config ~seed =
  let rng = Stats.Rng.create seed in
  let graph = Topology.Generators.random_connected rng ~n:50 ~avg_degree:8.6 in
  let hosts = Topology.Graph.hosts graph in
  match hosts with
  | source :: _ ->
      {
        label = "50-node random topology";
        graph;
        source;
        candidates = List.filter (fun h -> h <> source) hosts;
        sizes = [ 5; 10; 15; 20; 25; 30; 35; 40; 45 ];
      }
  | [] -> invalid_arg "rand50_config: generator produced no hosts"

type result = {
  config : config;
  runs : int;
  cost : Stats.Series.group;
  delay : Stats.Series.group;
}

(* One Monte-Carlo run, a pure function of [(seed, n, run)]: the RNG
   stream is hash-derived from the triple (group size by value, run by
   index), never drawn from a shared generator, so run [i] produces
   the same draws no matter which runs precede it, how the size list
   is arranged, or which domain executes it.  The graph is copied
   per run because [Scenario.make] re-randomizes link costs in
   place — sharing it across concurrent runs would race. *)
let sweep_sample ?(protocols = all_protocols)
    ?(rp_strategy = Pim.Rp.Highest_degree) ?(symmetric = false) ~seed config ~n
    ~run =
  let run_rng = Stats.Rng.derive2 ~seed ~a:n ~b:run in
  let graph = Topology.Graph.copy config.graph in
  let s =
    Workload.Scenario.make ~symmetric run_rng graph ~source:config.source
      ~candidates:config.candidates ~n
  in
  List.map
    (fun p ->
      let dist = build ~rp_strategy p run_rng s in
      ( p,
        ( float_of_int (Mcast.Distribution.cost dist),
          Mcast.Distribution.avg_delay dist ) ))
    protocols

let sweep ?(protocols = all_protocols) ?(runs = 500) ?(seed = 42)
    ?(rp_strategy = Pim.Rp.Highest_degree) ?(symmetric = false) ?(jobs = 1)
    config =
  let cost_series =
    List.map (fun p -> (p, Stats.Series.create (protocol_name p))) protocols
  in
  let delay_series =
    List.map (fun p -> (p, Stats.Series.create (protocol_name p))) protocols
  in
  let sizes = Array.of_list config.sizes in
  let samples =
    Sweep.map_merged ~jobs
      (Array.length sizes * runs)
      (fun i ->
        sweep_sample ~protocols ~rp_strategy ~symmetric ~seed config
          ~n:sizes.(i / runs) ~run:(i mod runs))
  in
  (* Fold the raw measurements into the series in run-index order on
     the calling domain — the same observation order a sequential
     sweep uses, so rendered output does not depend on [jobs]. *)
  Array.iteri
    (fun i per_protocol ->
      let n = sizes.(i / runs) in
      List.iter
        (fun (p, (cost, delay)) ->
          Stats.Series.observe (List.assoc p cost_series) ~x:n cost;
          Stats.Series.observe (List.assoc p delay_series) ~x:n delay)
        per_protocol)
    samples;
  {
    config;
    runs;
    cost =
      Stats.Series.group
        ~title:(Printf.sprintf "Tree cost — %s" config.label)
        ~x_label:"receivers" ~y_label:"avg packet copies"
        (List.map snd cost_series);
    delay =
      Stats.Series.group
        ~title:(Printf.sprintf "Receiver average delay — %s" config.label)
        ~x_label:"receivers" ~y_label:"avg delay (time units)"
        (List.map snd delay_series);
  }

(* ---- The paper's event-driven runs ------------------------------------ *)

module Sut = Verif.Sut

let paper_protocols =
  List.filter (fun p -> Option.is_some (Sut.regime p)) Sut.all

let regime p =
  match Sut.regime p with
  | Some r -> r
  | None -> invalid_arg ("Common: no paper regime for " ^ Sut.label p)

let paper_run ?trace ?(profile = false) p (s : Workload.Scenario.t) =
  let r = regime p in
  let module P = (val Sut.instance p) in
  let session = P.create ?trace s.table ~source:s.source in
  let engine = P.engine session in
  Eventsim.Engine.set_profiling engine profile;
  let spacing = float_of_int r.join_spacing *. P.control_period session in
  List.iter
    (fun m ->
      P.subscribe session m;
      if r.join_spacing > 0 then P.run_for session spacing)
    s.receivers;
  P.converge ~periods:r.settle_periods session;
  let dist = P.probe session in
  (dist, Eventsim.Engine.profile engine)

let paper_reference p (s : Workload.Scenario.t) =
  (regime p).reference s.table ~source:s.source ~receivers:s.receivers

(* ---- Instrumented companion run --------------------------------------- *)

type instrumented = {
  sample_size : int;
  receivers : int list;
  profiles : (Sut.protocol * Eventsim.Engine.profile) list;
}

(* Mirror a run's per-tag event counts into the default registry so a
   metrics snapshot (and its JSON export) carries the profile. *)
let fold_profile ~prefix (p : Eventsim.Engine.profile) =
  List.iter
    (fun (tag, (tp : Eventsim.Engine.tag_profile)) ->
      Obs.Metrics.add
        (Obs.Metrics.counter (Obs.Metrics.default ())
           (Printf.sprintf "%s.tag.%s" prefix tag))
        tp.fired)
    p.tags

let instrumented_sample ?trace ?(seed = 1) ?n (config : config) =
  let rng = Stats.Rng.create seed in
  let n =
    match n with
    | Some n -> n
    | None -> (
        (* Middle of the sweep's size range: big enough to branch. *)
        match config.sizes with
        | [] -> 4
        | l ->
            let a = Array.of_list l in
            a.(Array.length a / 2))
  in
  let s =
    Workload.Scenario.make rng config.graph ~source:config.source
      ~candidates:config.candidates ~n
  in
  let profiles =
    List.map
      (fun p -> (p, snd (paper_run ?trace ~profile:true p s)))
      paper_protocols
  in
  List.iter
    (fun (p, profile) -> fold_profile ~prefix:(Sut.name p ^ ".engine") profile)
    profiles;
  { sample_size = n; receivers = List.sort compare s.receivers; profiles }

let advantage group ~over ~of_ =
  let ratios = Stats.Series.ratio group ~num:of_ ~den:over in
  match ratios with
  | [] -> nan
  | _ ->
      let sum = List.fold_left (fun acc (_, r) -> acc +. (1.0 -. r)) 0.0 ratios in
      100.0 *. sum /. float_of_int (List.length ratios)
