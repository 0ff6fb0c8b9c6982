let isp ?runs ?seed ?jobs () =
  Obs.Metrics.reset (Obs.Metrics.default ());
  Common.sweep ?runs ?seed ?jobs (Common.isp_config ())

let rand50 ?runs ?seed ?jobs () =
  Obs.Metrics.reset (Obs.Metrics.default ());
  let seed = Option.value ~default:42 seed in
  Common.sweep ?runs ~seed ?jobs (Common.rand50_config ~seed)

type headline = {
  hbh_cost_advantage_pct : float;
  hbh_delay_advantage_pct : float;
}

let headline (r : Common.result) =
  {
    hbh_cost_advantage_pct = Common.advantage r.cost ~over:"REUNITE" ~of_:"HBH";
    hbh_delay_advantage_pct = Common.advantage r.delay ~over:"REUNITE" ~of_:"HBH";
  }
