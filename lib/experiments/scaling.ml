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

(* ---- Routing fast-path scaling ------------------------------------- *)

type fastpath_point = {
  n : int;
  eager_s : float;
  lazy_s : float;
  speedup : float;
  spf_eager : int;
  spf_lazy : int;
  query_ns : float;
  equiv_ok : bool;
}

let m_spf = Obs.Metrics.hot_counter "routing.spf_runs"

(* One reconvergence workload at router count [n]: [flaps] cycles of
   (fail worst-case link, re-query the [live] destinations in use,
   restore it, re-query), measured twice over the same graph — once
   with the eager full-refresh discipline every table had before the
   fast path (refresh + recompute every destination), once with
   targeted invalidation.  The flapped link is chosen adversarially
   for the lazy path: the one crossing the most live in-trees. *)
let fastpath_one ~seed ~flaps ~live n =
  let rng = Stats.Rng.create (seed + n) in
  let g =
    Topology.Generators.random_connected ~hosts:false rng ~n ~avg_degree:4.0
  in
  Topology.Graph.randomize_costs g rng ~lo:1 ~hi:10;
  let k = min live n in
  let dests = List.init k (fun i -> i * n / k) in
  let probe = Routing.Table.compute g in
  List.iter (fun d -> ignore (Routing.Table.in_tree probe d)) dests;
  let flap_u, flap_v, _ =
    List.fold_left
      (fun (_, _, best_c as acc) (l : Topology.Graph.link) ->
        let c = List.length (Routing.Table.using_edge probe l.u l.v) in
        if c > best_c then (l.u, l.v, c) else acc)
      (-1, -1, -1)
      (Topology.Graph.links g)
  in
  let query table = List.iter (fun d -> ignore (Routing.Table.in_tree table d)) dests in
  (* Eager baseline. *)
  let table_e = Routing.Table.compute g in
  Routing.Table.force_all table_e;
  let spf0 = Obs.Metrics.hot_value m_spf in
  let t0 = Sys.time () in
  for _ = 1 to flaps do
    Topology.Graph.set_link_up g flap_u flap_v false;
    Routing.Table.invalidate_all table_e;
    Routing.Table.force_all table_e;
    query table_e;
    Topology.Graph.set_link_up g flap_u flap_v true;
    Routing.Table.invalidate_all table_e;
    Routing.Table.force_all table_e;
    query table_e
  done;
  let eager_s = Sys.time () -. t0 in
  let spf_eager = Obs.Metrics.hot_value m_spf - spf0 in
  (* Lazy fast path. *)
  let table_l = Routing.Table.compute g in
  query table_l;
  let spf0 = Obs.Metrics.hot_value m_spf in
  let t0 = Sys.time () in
  for _ = 1 to flaps do
    Topology.Graph.set_link_up g flap_u flap_v false;
    ignore (Routing.Table.invalidate_edge table_l flap_u flap_v);
    query table_l;
    Topology.Graph.set_link_up g flap_u flap_v true;
    Routing.Table.invalidate_all table_l;
    query table_l
  done;
  let lazy_s = Sys.time () -. t0 in
  let spf_lazy = Obs.Metrics.hot_value m_spf - spf0 in
  (* Warm-cache route-query throughput. *)
  let queries = 200_000 in
  let darr = Array.of_list dests in
  let t0 = Sys.time () in
  for i = 0 to queries - 1 do
    ignore (Routing.Table.next_hop table_l (i mod n) ~dest:darr.(i mod k))
  done;
  let query_ns = (Sys.time () -. t0) *. 1e9 /. float_of_int queries in
  (* Equivalence oracle: the table that lived through the flap cycles
     must agree with a from-scratch computation everywhere. *)
  let fresh = Routing.Table.compute g in
  let equiv_ok = ref true in
  for d = 0 to n - 1 do
    for u = 0 to n - 1 do
      if
        Routing.Table.next_hop table_l u ~dest:d
        <> Routing.Table.next_hop fresh u ~dest:d
      then equiv_ok := false
    done
  done;
  {
    n;
    eager_s;
    lazy_s;
    speedup = (if lazy_s > 0.0 then eager_s /. lazy_s else infinity);
    spf_eager;
    spf_lazy;
    query_ns;
    equiv_ok = !equiv_ok;
  }

let large ?(seed = 42) ?(flaps = 5) ?(live = 32)
    ?(sizes = [ 50; 200; 500; 1000 ]) () =
  Obs.Metrics.reset (Obs.Metrics.default ());
  List.map (fun n -> fastpath_one ~seed ~flaps ~live n) sizes

let fastpath_to_json points =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "hbh-scaling/1");
      ( "points",
        Obs.Json.List
          (List.map
             (fun p ->
               Obs.Json.Obj
                 [
                   ("n", Obs.Json.Int p.n);
                   ("eager_s", Obs.Json.Float p.eager_s);
                   ("lazy_s", Obs.Json.Float p.lazy_s);
                   ("speedup", Obs.Json.Float p.speedup);
                   ("spf_eager", Obs.Json.Int p.spf_eager);
                   ("spf_lazy", Obs.Json.Int p.spf_lazy);
                   ("query_ns", Obs.Json.Float p.query_ns);
                   ("route_equivalence", Obs.Json.Bool p.equiv_ok);
                 ])
             points) );
    ]

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
