type result = {
  config : Common.config;
  runs : int;
  mft : Stats.Series.group;
  mct : Stats.Series.group;
  branching : Stats.Series.group;
}

let protocols = Common.[ Pim_ss; Reunite; Hbh ]

let run ?(runs = 200) ?(seed = 42) (config : Common.config) =
  let series () =
    List.map
      (fun p -> (p, Stats.Series.create (Common.protocol_name p)))
      protocols
  in
  let mft = series () and mct = series () and branching = series () in
  let master = Stats.Rng.create seed in
  List.iter
    (fun n ->
      let size_rng = Stats.Rng.split master in
      for _ = 1 to runs do
        let rng = Stats.Rng.split size_rng in
        let s =
          Workload.Scenario.make rng config.graph ~source:config.source
            ~candidates:config.candidates ~n
        in
        List.iter
          (fun p ->
            let st = Common.state p rng s in
            Stats.Series.observe (List.assoc p mft) ~x:n
              (float_of_int st.Mcast.Metrics.mft_entries);
            Stats.Series.observe (List.assoc p mct) ~x:n
              (float_of_int st.Mcast.Metrics.mct_entries);
            Stats.Series.observe (List.assoc p branching) ~x:n
              (float_of_int st.Mcast.Metrics.branching_routers))
          protocols
      done)
    config.sizes;
  {
    config;
    runs;
    mft =
      Stats.Series.group
        ~title:(Printf.sprintf "Forwarding (MFT) entries — %s" config.label)
        ~x_label:"receivers" ~y_label:"entries" (List.map snd mft);
    mct =
      Stats.Series.group
        ~title:(Printf.sprintf "Control (MCT) entries — %s" config.label)
        ~x_label:"receivers" ~y_label:"entries" (List.map snd mct);
    branching =
      Stats.Series.group
        ~title:(Printf.sprintf "Branching routers — %s" config.label)
        ~x_label:"receivers" ~y_label:"routers" (List.map snd branching);
  }
