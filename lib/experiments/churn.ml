(* The multi-channel churn experiment: one network, one channel
   multiplexer, hundreds-to-thousands of concurrent channels with
   Zipf-shaped popularity and per-channel Poisson churn, on a
   generated internet-scale topology.  The measurement is the paper's
   question under sustained membership change: how far does the live
   tree drift from a freshly re-optimized one — in tree cost and in
   receiver delay — and how much does slowing the periodic
   re-optimization (the "stretched" arm, every control constant
   scaled 10x) widen the gap?

   Everything is a pure function of [seed]: topology, link costs and
   the merged churn schedule are hash-derived, arms share nothing, and
   {!Sweep.map_merged} merges per-arm registries in arm order — so
   output is byte-identical however many jobs run the arms. *)

module G = Topology.Graph
module Sut = Verif.Sut
module Engine = Eventsim.Engine
module Net = Netsim.Network

type gen = Power_law | As_hierarchy

let gens = [ Power_law; As_hierarchy ]
let gen_name = function Power_law -> "power-law" | As_hierarchy -> "as-hierarchy"

type params = {
  gen : gen;
  routers : int;  (** generated router count (one host each) *)
  channels : int;
  rate : float;  (** aggregate join rate over all channels *)
  zipf_s : float;
  mean_hold : float;
  horizon : float;
  sample_every : float;
  probe_ranks : int;  (** sampled Zipf ranks probed per sample point *)
}

let default_params =
  {
    gen = Power_law;
    routers = 5000;
    channels = 1000;
    rate = 0.5;
    zipf_s = 1.0;
    mean_hold = 300.0;
    horizon = 2000.0;
    sample_every = 500.0;
    probe_ranks = 6;
  }

(* Drain window after a probe send: longest unicast path on the
   generated families is well under 20 hops, and link delays cap at
   10 — REUNITE's chained source->dst->receiver legs included. *)
let probe_drain = 200.0

(* The stretched arm scales every protocol time constant by this
   factor, so the protocol stays self-consistent — only its pace
   relative to the (unchanged) churn rate drops. *)
let stretch_factor = 10.0

(* Channel [c]'s group address: 232.0.0.0/8 (the SSM block), offset
   [c + 1] — a pure function of the rank, unlike the global
   [Channel.fresh] allocator, so arms running in one process never
   diverge. *)
let channel_of_rank ~source c =
  let group = Mcast.Class_d.of_int32 (Int32.of_int (0xE8000000 + c + 1)) in
  Mcast.Channel.make ~source ~group

(* ---- One arm ----------------------------------------------------------- *)

type sample = {
  s_time : float;  (** nominal sample instant (sim time at its start) *)
  s_members : int;  (** live members summed over all channels *)
  s_active : int;  (** channels with at least one member *)
  s_probed : int;  (** sampled channels actually probed *)
  s_cost_ratio : float;  (** mean live-tree cost / fresh analytic cost *)
  s_delay_ratio : float;  (** mean live avg-delay / analytic avg-delay *)
  s_delivered : int;  (** probe deliveries received *)
  s_expected : int;  (** probe deliveries owed (members of probed channels) *)
}

type outcome = {
  o_proto : Sut.protocol;
  o_stretched : bool;
  o_params : params;
  o_samples : sample list;
  o_control_hops : int;
  o_hot_series : int;  (** channels holding their own rollup slot *)
  o_spilled : bool;  (** any channel aggregated into the [_other] series *)
}

let arm_name stretched = if stretched then "stretched" else "normal"

(* Zipf ranks probed at each sample point: 0, 1, 3, 7, ... — log-spaced
   so the head is measured densely and the tail is still represented. *)
let probe_rank_list ~channels ~probe_ranks =
  let rec go r acc k =
    if k = 0 || r >= channels then List.rev acc
    else go ((2 * r) + 1) (r :: acc) (k - 1)
  in
  go 0 [] probe_ranks

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let run_arm ~seed ~params proto ~stretched =
  let p = params in
  (* Topology and costs are arm-independent: every arm rebuilds the
     identical graph from the same derived streams. *)
  let topo_rng = Stats.Rng.derive2 ~seed ~a:0 ~b:0 in
  let g =
    match p.gen with
    | Power_law -> Topology.Generators.power_law topo_rng ~n:p.routers
    | As_hierarchy -> Topology.Generators.as_hierarchy topo_rng ~n:p.routers
  in
  G.randomize_costs g (Stats.Rng.derive2 ~seed ~a:0 ~b:1) ~lo:1 ~hi:10;
  let table = Routing.Table.compute g in
  let source, candidates =
    match G.hosts g with
    | s :: rest -> (s, rest)
    | [] -> invalid_arg "Churn.run: generated topology has no hosts"
  in
  let popularity = Workload.Zipf.create ~s:p.zipf_s ~n:p.channels () in
  let sched =
    Workload.Churn.multi ~seed ~channels:p.channels ~candidates ~rate:p.rate
      ~popularity ~mean_hold:p.mean_hold ~horizon:p.horizon
  in
  (* Every arm builds the same shape over the protocol's session
     instance: one network, one mux, [channels] sessions attached in
     rank order. *)
  let module P = (val Sut.instance proto) in
  let engine = Engine.create () in
  let net = Net.create engine table in
  let mx = P.mux net in
  let config =
    if stretched then P.scale_timers stretch_factor P.default_config
    else P.default_config
  in
  let sessions =
    Array.init p.channels (fun c ->
        P.create_mux ~config ~channel:(channel_of_rank ~source c) mx ~source)
  in
  (* Probe one channel: one data packet, drained, read as
     {!Proto.Session.S.probe} reads it.  Only the probed channel emits
     data inside the window (churn events are joins/leaves), so the
     shared accounting is exact. *)
  let probe c =
    Net.reset_data_accounting net;
    P.send_data sessions.(c);
    P.run_for sessions.(c) probe_drain;
    Mcast.Distribution.of_accounting ~source (Net.data_link_loads net)
      (Net.data_deliveries net)
  in
  (* Per-channel rollups: the Zipf head gets per-channel series, the
     tail aggregates under [_other].  Labels carry the arm identity so
     merged registries from concurrent arms never collide. *)
  let rollup =
    Obs.Rollup.create
      ~labels:
        (Obs.Labels.v
           [
             ("protocol", Sut.name proto);
             ("arm", arm_name stretched);
           ])
      (Obs.Metrics.default ())
  in
  let chan_value c = Printf.sprintf "c%d" c in
  List.iter
    (fun (t, c, ev) ->
      ignore
        (Engine.schedule_at ~tag:"churn.workload" engine ~time:t (fun () ->
             match ev with
             | Workload.Churn.Join r ->
                 P.subscribe sessions.(c) r;
                 Obs.Metrics.incr
                   (Obs.Rollup.counter rollup "churn.joins" (chan_value c))
             | Workload.Churn.Leave r ->
                 P.unsubscribe sessions.(c) r;
                 Obs.Metrics.incr
                   (Obs.Rollup.counter rollup "churn.leaves" (chan_value c)))))
    sched;
  let ranks = probe_rank_list ~channels:p.channels ~probe_ranks:p.probe_ranks in
  (* The probes drain past [sample_every] when they are many, so a
     sample is taken when it is due or, if the previous one's probes
     ran later, when they ended: the clock only moves forward, and the
     row's time is the instant its probes start. *)
  let sample_at t =
    let t = Float.max t (Engine.now engine) in
    Engine.run ~until:t engine;
    let members_of c = P.members sessions.(c) in
    let total = ref 0 and active = ref 0 in
    for c = 0 to p.channels - 1 do
      match List.length (members_of c) with
      | 0 -> ()
      | m ->
          total := !total + m;
          incr active
    done;
    let cost_ratios = ref [] and delay_ratios = ref [] in
    let probed = ref 0 and delivered = ref 0 and expected = ref 0 in
    List.iter
      (fun c ->
        match members_of c with
        | [] -> ()
        | members ->
            incr probed;
            expected := !expected + List.length members;
            let live = probe c in
            let ideal = Sut.analytic proto table ~source ~receivers:members in
            delivered := !delivered + List.length (Mcast.Distribution.receivers live);
            let ic = Mcast.Distribution.cost ideal in
            if ic > 0 then begin
              let r =
                float_of_int (Mcast.Distribution.cost live) /. float_of_int ic
              in
              cost_ratios := r :: !cost_ratios;
              Obs.Metrics.set
                (Obs.Rollup.gauge rollup "churn.cost_ratio" (chan_value c))
                r
            end;
            let id = Mcast.Distribution.avg_delay ideal in
            let ld = Mcast.Distribution.avg_delay live in
            if Float.is_finite id && Float.is_finite ld && id > 0.0 then begin
              delay_ratios := (ld /. id) :: !delay_ratios;
              Obs.Metrics.set
                (Obs.Rollup.gauge rollup "churn.delay_ratio" (chan_value c))
                (ld /. id)
            end)
      ranks;
    {
      s_time = t;
      s_members = !total;
      s_active = !active;
      s_probed = !probed;
      s_cost_ratio = mean !cost_ratios;
      s_delay_ratio = mean !delay_ratios;
      s_delivered = !delivered;
      s_expected = !expected;
    }
  in
  let rec sample_times t acc =
    if t > p.horizon +. 1e-9 then List.rev acc
    else sample_times (t +. p.sample_every) (t :: acc)
  in
  let samples = List.map sample_at (sample_times p.sample_every []) in
  {
    o_proto = proto;
    o_stretched = stretched;
    o_params = p;
    o_samples = samples;
    o_control_hops = (Net.counters net).Net.control_hops;
    o_hot_series = Obs.Rollup.series_count rollup;
    o_spilled = Obs.Rollup.spilled rollup;
  }

(* ---- The experiment ----------------------------------------------------- *)

let run ?(protocols = Sut.all) ?(arms = [ false; true ])
    ?(params = default_params) ?(jobs = 1) ~seed () =
  Obs.Metrics.reset (Obs.Metrics.default ());
  let cases =
    Array.of_list
      (List.concat_map
         (fun proto -> List.map (fun stretched -> (proto, stretched)) arms)
         protocols)
  in
  let outcomes =
    Sweep.map_merged ~jobs (Array.length cases) (fun i ->
        let proto, stretched = cases.(i) in
        run_arm ~seed ~params proto ~stretched)
  in
  Array.to_list outcomes

(* ---- Rendering ---------------------------------------------------------- *)

let headers =
  [
    "protocol";
    "arm";
    "t";
    "active";
    "members";
    "cost-x";
    "delay-x";
    "delivered";
  ]

let rows o =
  List.map
    (fun s ->
      let fx v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" v in
      [
        Sut.label o.o_proto;
        arm_name o.o_stretched;
        Printf.sprintf "%.0f" s.s_time;
        string_of_int s.s_active;
        string_of_int s.s_members;
        fx s.s_cost_ratio;
        fx s.s_delay_ratio;
        Printf.sprintf "%d/%d" s.s_delivered s.s_expected;
      ])
    o.o_samples

let pp_outcomes ppf outcomes =
  Stats.Table.render ppf ~headers (List.concat_map rows outcomes)

let to_json outcomes =
  let sample_json s =
    Obs.Json.Obj
      [
        ("t", Obs.Json.Float s.s_time);
        ("members", Obs.Json.Int s.s_members);
        ("active_channels", Obs.Json.Int s.s_active);
        ("probed", Obs.Json.Int s.s_probed);
        ("cost_ratio", Obs.Json.Float s.s_cost_ratio);
        ("delay_ratio", Obs.Json.Float s.s_delay_ratio);
        ("delivered", Obs.Json.Int s.s_delivered);
        ("expected", Obs.Json.Int s.s_expected);
      ]
  in
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "hbh-churn/1");
      ( "outcomes",
        Obs.Json.List
          (List.map
             (fun o ->
               Obs.Json.Obj
                 [
                   ( "protocol",
                     Obs.Json.String (Sut.name o.o_proto) );
                   ("arm", Obs.Json.String (arm_name o.o_stretched));
                   ("generator", Obs.Json.String (gen_name o.o_params.gen));
                   ("routers", Obs.Json.Int o.o_params.routers);
                   ("channels", Obs.Json.Int o.o_params.channels);
                   ("control_hops", Obs.Json.Int o.o_control_hops);
                   ("hot_series", Obs.Json.Int o.o_hot_series);
                   ("spilled", Obs.Json.Bool o.o_spilled);
                   ("samples", Obs.Json.List (List.map sample_json o.o_samples));
                 ])
             outcomes) );
    ]
