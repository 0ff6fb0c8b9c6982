(* The unit-cost ladder of the traced run: the cost of one unit of work
   in each layer, measured through public functions, each sized to the
   workload that uses it.  A workload's layer sum is unit cost x count;
   the benchmark prints it beside the measured op time. *)

module H = Harness
module Engine = Eventsim.Engine
module Net = Netsim.Network

(* Runs [f] in [slices] timed slices; returns the normalised ms per
   call of [f], given [per] calls in each slice. *)
let per_call ~slices ~per f =
  let st = H.setup_begin () in
  for _ = 1 to slices do
    H.slice st "u" (fun () ->
        for _ = 1 to per do
          f ()
        done)
  done;
  H.part_ms st "u" /. float_of_int (slices * per)

(* One engine event: schedule, then fire. *)
let event_ns () =
  let e = Engine.create () in
  let batch = 1000 in
  1e6
  *. per_call ~slices:20 ~per:20 (fun () ->
         for i = 1 to batch do
           ignore (Engine.schedule e ~delay:(float_of_int (i land 7)) ignore)
         done;
         Engine.run e)
  /. float_of_int batch

(* One timer-wheel entry firing: 512 periodic entries (two per channel
   at 256 channels) in four coalesced buckets. *)
let wheel_ns () =
  let e = Engine.create () in
  let w = Eventsim.Wheel.create e in
  let entries = 512 and period = 100.0 in
  for k = 0 to entries - 1 do
    ignore
      (Eventsim.Wheel.every w ~start:(float_of_int (1 + (k land 3))) ~period ignore)
  done;
  let periods = 50 in
  1e6
  *. per_call ~slices:20 ~per:1 (fun () ->
         Engine.run ~until:(Engine.now e +. (period *. float_of_int periods)) e)
  /. float_of_int (entries * periods)

(* The churn graph and a long path across it. *)
let churn_path ~seed =
  let g =
    Topology.Generators.power_law ~m:2 (Stats.Rng.derive2 ~seed ~a:0 ~b:0)
      ~n:Churn_wl.routers
  in
  Topology.Graph.randomize_costs g (Stats.Rng.derive2 ~seed ~a:0 ~b:1) ~lo:1 ~hi:10;
  let table = Routing.Table.compute g in
  let src = List.hd (Topology.Graph.hosts g) in
  let hops h = List.length (Routing.Table.path table src h) - 1 in
  let dst =
    List.fold_left
      (fun best h -> if hops h > hops best then h else best)
      src
      (List.filteri (fun i _ -> i < 40) (Topology.Graph.hosts g))
  in
  (table, src, dst, hops dst)

(* One network hop of a data packet with no handler on the path, and
   the mux dispatch cost at 256 channels: the same packets through a
   mux whose 256 ports forward everything, covering every node of the
   path, less the plain hop.  The two are timed in alternating slices so
   host phases cancel out of the difference. *)
let hop_and_dispatch_ns (table, src, dst, hops) =
  let plain : unit Net.t = Net.create (Engine.create ()) table in
  let muxed : int Net.t = Net.create (Engine.create ()) table in
  let mx = Proto.Mux.create ~key_of:Fun.id muxed in
  for k = 0 to 255 do
    Proto.Mux.register mx ~key:k
      {
        Proto.Mux.p_handle = (fun _ _ -> Net.Forward);
        p_deliver = (fun ~now:_ ~node:_ _ -> ());
        p_node_event = (fun ~up:_ _ -> ());
        p_route_change = (fun ~changed:_ -> ());
      }
  done;
  List.iter (Proto.Mux.cover mx) (Routing.Table.path table src dst);
  let burst = 1000 and slices = 40 in
  let st = H.setup_begin () in
  for _ = 1 to slices do
    H.slice st "plain" (fun () ->
        for _ = 1 to burst do
          Net.originate plain ~src ~dst ~kind:Netsim.Packet.Data ()
        done;
        Engine.run (Net.engine plain));
    H.slice st "mux" (fun () ->
        for k = 1 to burst do
          Net.originate muxed ~src ~dst ~kind:Netsim.Packet.Data (k land 255)
        done;
        Engine.run (Net.engine muxed))
  done;
  let ns part = 1e6 *. H.part_ms st part /. float_of_int (slices * burst * hops) in
  (ns "plain", ns "mux" -. ns "plain")

(* Verifier unit costs for one protocol on ISP, from a settled state
   with three members. *)
let verif_units (p, name) =
  let sut = Verify_wl.make_sut p in
  List.iter
    (fun m -> Verif.Scenario.apply sut (Verif.Scenario.Join m))
    (List.filteri (fun i _ -> i < 3) Topology.Isp.receiver_hosts);
  ignore (Verif.Scenario.quiesce sut);
  let save_restore () = sut.Verif.Sut.save () () in
  let sr = per_call ~slices:10 ~per:100 save_restore in
  let digest =
    per_call ~slices:10 ~per:100 (fun () -> ignore (Verif.Sut.state_digest sut))
  in
  let oracle =
    per_call ~slices:10 ~per:5 (fun () ->
        let restore = sut.Verif.Sut.save () in
        ignore (Verif.Oracle.check sut);
        restore ())
    -. sr
  in
  let joiner = List.nth Topology.Isp.receiver_hosts 3 in
  let quiesce =
    per_call ~slices:10 ~per:5 (fun () ->
        let restore = sut.Verif.Sut.save () in
        Verif.Scenario.apply sut (Verif.Scenario.Join joiner);
        ignore (Verif.Scenario.quiesce sut);
        restore ())
    -. sr
  in
  let k s = "verif." ^ name ^ "." ^ s in
  [
    (k "save_restore_us", sr *. 1000.0);
    (k "digest_us", digest *. 1000.0);
    (k "oracle_ms", oracle);
    (k "quiesce_ms", quiesce);
  ]

let units ~seed =
  let hop, dispatch = hop_and_dispatch_ns (churn_path ~seed) in
  [
    ("eventsim.event_ns", event_ns ());
    ("eventsim.wheel_ns", wheel_ns ());
    ("netsim.hop_ns", hop);
    ("proto.mux_dispatch_ns", dispatch);
  ]
  @ List.concat_map verif_units (Array.to_list Verify_wl.protocols)
