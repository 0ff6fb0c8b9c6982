type symmetry_result = {
  asymmetric : Common.result;
  symmetric : Common.result;
}

let symmetry ?(runs = 200) ?(seed = 42) config =
  {
    asymmetric = Common.sweep ~runs ~seed config;
    symmetric = Common.sweep ~runs ~seed ~symmetric:true config;
  }

type overhead_point = {
  size : int;
  hops_per_period : (Verif.Sut.protocol * float) list;
}

(* Per protocol: converge, then measure the steady-state control
   traffic of one more window of [measure_window] control periods. *)
let measure_window = 10.0

let steady_overhead p (s : Workload.Scenario.t) =
  let module P = (val Verif.Sut.instance p) in
  let session = P.create s.table ~source:s.source in
  List.iter (P.subscribe session) s.receivers;
  P.converge ~periods:15 session;
  let before = P.control_overhead session in
  P.run_for session (measure_window *. P.control_period session);
  float_of_int (P.control_overhead session - before) /. measure_window

let overhead ?(runs = 5) ?(seed = 42) ?sizes (config : Common.config) =
  let sizes = match sizes with Some s -> s | None -> config.sizes in
  let master = Stats.Rng.create seed in
  List.map
    (fun n ->
      let size_rng = Stats.Rng.split master in
      let accs =
        List.map (fun p -> (p, Stats.Summary.create ())) Common.paper_protocols
      in
      for _ = 1 to runs do
        let rng = Stats.Rng.split size_rng in
        let s =
          Workload.Scenario.make rng config.graph ~source:config.source
            ~candidates:config.candidates ~n
        in
        List.iter
          (fun (p, acc) -> Stats.Summary.add acc (steady_overhead p s))
          accs
      done;
      {
        size = n;
        hops_per_period =
          List.map (fun (p, acc) -> (p, Stats.Summary.mean acc)) accs;
      })
    sizes

(* Series in the figures' legend order (REUNITE before HBH), the
   reverse of the registry's. *)
let overhead_group points =
  let series p =
    let s = Stats.Series.create (Verif.Sut.label p) in
    List.iter
      (fun pt ->
        Stats.Series.observe s ~x:pt.size (List.assoc p pt.hops_per_period))
      points;
    s
  in
  Stats.Series.group
    ~title:"Steady-state control overhead (message link-traversals per tree period)"
    ~x_label:"receivers" ~y_label:"hops/period"
    (List.rev_map series Common.paper_protocols)
