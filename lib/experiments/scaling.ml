type point = {
  x : int;
  cost_advantage_pct : float;
  delay_advantage_pct : float;
}

(* HBH-vs-REUNITE advantage on a given random-topology family, with
   the topology itself redrawn every run (unlike the paper's fixed
   RAND50) so the measurement reflects the family, not one sample. *)
let advantage ?(jobs = 1) ~runs ~seed ~n_routers ~avg_degree ~receivers:k () =
  let cost_re = Stats.Summary.create () and cost_hbh = Stats.Summary.create () in
  let delay_re = Stats.Summary.create () and delay_hbh = Stats.Summary.create () in
  let samples =
    Sweep.map_merged ~jobs runs (fun run ->
        (* Hash-derived per-run stream: run [i] redraws the same
           topology whatever ran before it and wherever it runs. *)
        let rng = Stats.Rng.derive ~seed ~index:run in
        let g =
          Topology.Generators.random_connected rng ~n:n_routers ~avg_degree
        in
        Topology.Graph.randomize_costs g rng ~lo:1 ~hi:10;
        let table = Routing.Table.compute g in
        let hosts = Topology.Graph.hosts g in
        let source = List.hd hosts in
        let receivers =
          Workload.Scenario.pick_receivers rng ~candidates:(List.tl hosts) ~n:k
        in
        let re = Reunite.Analytic.build table ~source ~receivers in
        let hbh = Hbh.Analytic.build table ~source ~receivers in
        ( Mcast.Distribution.cost re,
          Mcast.Distribution.cost hbh,
          Mcast.Distribution.avg_delay re,
          Mcast.Distribution.avg_delay hbh ))
  in
  Array.iter
    (fun (cre, chbh, dre, dhbh) ->
      Stats.Summary.add_int cost_re cre;
      Stats.Summary.add_int cost_hbh chbh;
      Stats.Summary.add delay_re dre;
      Stats.Summary.add delay_hbh dhbh)
    samples;
  let pct a b = 100.0 *. (1.0 -. (Stats.Summary.mean a /. Stats.Summary.mean b)) in
  (pct cost_hbh cost_re, pct delay_hbh delay_re)

let connectivity ?(runs = 150) ?(seed = 42)
    ?(degrees = [ 3.0; 4.0; 6.0; 8.0; 10.0 ]) ?jobs () =
  Obs.Metrics.reset (Obs.Metrics.default ());
  List.map
    (fun d ->
      let cost, delay =
        advantage ?jobs ~runs ~seed ~n_routers:50 ~avg_degree:d ~receivers:10 ()
      in
      {
        x = int_of_float (Float.round (10.0 *. d));
        cost_advantage_pct = cost;
        delay_advantage_pct = delay;
      })
    degrees

let size ?(runs = 150) ?(seed = 42) ?(sizes = [ 20; 50; 100; 150 ]) ?jobs () =
  Obs.Metrics.reset (Obs.Metrics.default ());
  List.map
    (fun n ->
      let cost, delay =
        advantage ?jobs ~runs ~seed ~n_routers:n ~avg_degree:4.0
          ~receivers:(max 2 (n / 5)) ()
      in
      { x = n; cost_advantage_pct = cost; delay_advantage_pct = delay })
    sizes

let group ~x_label points =
  let cost = Stats.Series.create "cost advantage %" in
  let delay = Stats.Series.create "delay advantage %" in
  List.iter
    (fun p ->
      Stats.Series.observe cost ~x:p.x p.cost_advantage_pct;
      Stats.Series.observe delay ~x:p.x p.delay_advantage_pct)
    points;
  Stats.Series.group ~title:"HBH advantage over REUNITE" ~x_label
    ~y_label:"percent" [ cost; delay ]
