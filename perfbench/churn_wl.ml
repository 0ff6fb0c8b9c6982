(* [churn]: 256 Zipf(1) channels of one source on a 1000-router
   power-law topology (m = 2, one host per router, costs 1..10 in each
   direction), aggregate join rate 0.5, mean hold 300 — the [hbh_sim
   churn] traffic model.  Three networks (HBH, REUNITE, PIM-SSM) each
   carry all 256 channels on one channel multiplexer, and share one
   routing table.

   Set-up fills the routes of every destination, attaches the sessions
   and warms up to t = 600.  One op sends one data packet on each probed
   Zipf rank (0, 1, 3, ..., 255), then advances each network by one
   100-unit refresh period.  Ops run no shortest-path computation: the
   engine, the timer wheel, network hops, mux dispatch and the protocol
   handlers do all of the op work. *)

module H = Harness
module G = Topology.Graph
module Engine = Eventsim.Engine
module Net = Netsim.Network

let routers = 1000
let channels = 256
let rate = 0.5
let zipf_s = 1.0
let mean_hold = 300.0
let warmup = 600.0
let period = 100.0

(* A member that joined this long before a probe must receive it. *)
let steady = 550.0

(* A run is a fixed sequence of ops, however long it takes.  The cost of an op grows with simulated time at a
   constant number of events and hops per op (about 2.5x from the first
   40 ops to ops 280-320), so a run that made more ops because the
   program got faster would report over costlier ops.  A fixed count
   keeps every run on the same ops; 240 take about 15 s on a 2-vCPU KVM
   host.  The whole churn schedule is drawn in set-up. *)
let max_ops = 240
let horizon = warmup +. (period *. float_of_int (max_ops + 2))
let window = 40

(* No network fires more than about 6000 events in a healthy op.  An op
   that reaches this many is a runaway: REUNITE duplicates one probe
   without bound at seeds 8 (op 74), 20 (op 120) and 203 (op 83), and
   unchecked fills 8 GB within seconds.  The op fails and the run ends there. *)
let runaway_events = 200_000
let fill_batch = 64
let setup_repeats = 3

let probe_ranks =
  let rec go r acc = if r >= channels then List.rev acc else go ((2 * r) + 1) (r :: acc) in
  go 0 []

(* Channel of Zipf rank [c]: 232.0.0.0/8 offset [c + 1], as the churn
   experiment numbers them. *)
let channel_of_rank ~source c =
  Mcast.Channel.make ~source
    ~group:(Mcast.Class_d.of_int32 (Int32.of_int (0xE8000000 + c + 1)))

(* ---- One network ----------------------------------------------------- *)

type net = {
  name : string;
  engine : Engine.t;
  subscribe : int -> int -> unit;  (** rank, host *)
  unsubscribe : int -> int -> unit;
  send : int -> int;  (** send one data packet on a rank; its sequence number *)
  counters : unit -> Net.counters;
  reset_data : unit -> unit;
  members : (int, float) Hashtbl.t array;  (** per rank: host -> join time *)
  left : (int, float) Hashtbl.t array;  (** per rank: host -> last leave time *)
  probes : (int * int, (int, int) Hashtbl.t) Hashtbl.t;
      (** pending probe (rank, seq) -> host -> copies delivered *)
  mutable pending : (int * (int, int) Hashtbl.t * float) list;
      (** (rank, copies delivered per host, sent at) *)
  last_seq : int array;  (** per rank: sequence number of the last packet sent *)
  mutable dups : int;
  mutable late : int;
  mutable missed_ops : int;
}

(* The delivery hook every protocol's network gets: all four share the
   runtime's message vocabulary, so data packets read the same way. *)
let on_data (net : (_, _, _) Proto.Messages.t Net.t) ~rank_of f =
  Net.on_delivery net (fun ~now ~node p ->
      match p.Netsim.Packet.payload with
      | Proto.Messages.Data { channel; seq } ->
          f ~now ~node ~rank:(Hashtbl.find rank_of (Mcast.Channel.key channel)) ~seq
      | _ -> ())

let make_net name engine ~subscribe ~unsubscribe ~send ~counters ~reset_data =
  {
    name;
    engine;
    subscribe;
    unsubscribe;
    send;
    counters;
    reset_data;
    members = Array.init channels (fun _ -> Hashtbl.create 8);
    left = Array.init channels (fun _ -> Hashtbl.create 8);
    probes = Hashtbl.create 16;
    pending = [];
    last_seq = Array.make channels 0;
    dups = 0;
    late = 0;
    missed_ops = 0;
  }

let record n ~now ~node ~rank ~seq =
  (match Hashtbl.find_opt n.probes (rank, seq) with
  | Some got ->
      let c = Option.value ~default:0 (Hashtbl.find_opt got node) in
      if c > 0 then n.dups <- n.dups + 1;
      Hashtbl.replace got node (c + 1)
  | None -> ());
  if not (Hashtbl.mem n.members.(rank) node) then
    match Hashtbl.find_opt n.left.(rank) node with
    | Some t when now -. t > steady -> n.late <- n.late + 1
    | _ -> ()

(* Builds one protocol's network: a fresh engine and network on the
   shared table, one mux, one session per channel. *)
let attach name table ~source ~rank_of =
  let engine = Engine.create () in
  let sessions create_mux subscribe unsubscribe send_data data_seq =
    let s = Array.init channels (fun c -> create_mux (channel_of_rank ~source c)) in
    ( (fun c h -> subscribe s.(c) h),
      (fun c h -> unsubscribe s.(c) h),
      fun c ->
        send_data s.(c);
        data_seq s.(c) )
  in
  let finish net (subscribe, unsubscribe, send) =
    let n =
      make_net name engine ~subscribe ~unsubscribe ~send
        ~counters:(fun () -> Net.counters net)
        ~reset_data:(fun () -> Net.reset_data_accounting net)
    in
    on_data net ~rank_of (record n);
    n
  in
  match name with
  | "hbh" ->
      let net = Net.create engine table in
      let mx = Hbh.Protocol.mux net in
      finish net
        (sessions
           (fun channel -> Hbh.Protocol.create_mux ~channel mx ~source)
           Hbh.Protocol.subscribe Hbh.Protocol.unsubscribe
           Hbh.Protocol.send_data Hbh.Protocol.data_seq)
  | "reunite" ->
      let net = Net.create engine table in
      let mx = Reunite.Protocol.mux net in
      finish net
        (sessions
           (fun channel -> Reunite.Protocol.create_mux ~channel mx ~source)
           Reunite.Protocol.subscribe Reunite.Protocol.unsubscribe
           Reunite.Protocol.send_data Reunite.Protocol.data_seq)
  | "pim-ssm" ->
      let net = Net.create engine table in
      let mx = Pim.Ssm.mux net in
      finish net
        (sessions
           (fun channel -> Pim.Ssm.create_mux ~channel mx ~source)
           Pim.Ssm.subscribe Pim.Ssm.unsubscribe Pim.Ssm.send_data
           Pim.Ssm.data_seq)
  | _ -> invalid_arg name

let net_names = [| "hbh"; "reunite"; "pim-ssm" |]

(* ---- The world ------------------------------------------------------- *)

type world = {
  nets : net array;
  table : Routing.Table.t;
  stream : (float * int * Workload.Churn.event) array;
  mutable cursor : int;  (** next stream event to schedule *)
}

(* Schedules every stream event up to [until] (inclusive) into every
   network; each network applies it and keeps its own membership view. *)
let feed w until =
  while w.cursor < Array.length w.stream
        && (let t, _, _ = w.stream.(w.cursor) in t <= until) do
    let t, c, ev = w.stream.(w.cursor) in
    Array.iter
      (fun n ->
        ignore
          (Engine.schedule_at n.engine ~time:t (fun () ->
               match ev with
               | Workload.Churn.Join h ->
                   Hashtbl.replace n.members.(c) h t;
                   n.subscribe c h
               | Workload.Churn.Leave h ->
                   Hashtbl.remove n.members.(c) h;
                   Hashtbl.replace n.left.(c) h t;
                   n.unsubscribe c h)))
      w.nets;
    w.cursor <- w.cursor + 1
  done

let setup ~seed =
  let st = H.setup_begin () in
  let g =
    H.slice st "topology.gen" (fun () ->
        let g =
          Topology.Generators.power_law ~m:2
            (Stats.Rng.derive2 ~seed ~a:0 ~b:0)
            ~n:routers
        in
        G.randomize_costs g (Stats.Rng.derive2 ~seed ~a:0 ~b:1) ~lo:1 ~hi:10;
        g)
  in
  let table = Routing.Table.compute g in
  let nodes = G.node_count g in
  let d = ref 0 in
  while !d < nodes do
    let hi = min nodes (!d + fill_batch) in
    H.slice st "routing.fill" (fun () ->
        for x = !d to hi - 1 do
          ignore (Routing.Table.in_tree table x)
        done);
    d := hi
  done;
  let source, candidates =
    match G.hosts g with
    | s :: rest -> (s, rest)
    | [] -> invalid_arg "churn: topology has no hosts"
  in
  let stream =
    H.slice st "churn.schedule" (fun () ->
        let popularity = Workload.Zipf.create ~s:zipf_s ~n:channels () in
        Array.of_list
          (Workload.Churn.multi ~seed ~channels ~candidates ~rate ~popularity
             ~mean_hold ~horizon))
  in
  let rank_of = Hashtbl.create channels in
  for c = 0 to channels - 1 do
    Hashtbl.replace rank_of (Mcast.Channel.key (channel_of_rank ~source c)) c
  done;
  let nets =
    Array.map
      (fun name -> H.slice st "proto.attach" (fun () -> attach name table ~source ~rank_of))
      net_names
  in
  let w = { nets; table; stream; cursor = 0 } in
  let t = ref 0.0 in
  while !t < warmup do
    t := !t +. period;
    feed w !t;
    Array.iter
      (fun n -> H.slice st "churn.warmup" (fun () -> Engine.run ~until:!t n.engine))
      nets
  done;
  (w, st, nodes)

(* ---- Ops ------------------------------------------------------------- *)

let advance n t ~what =
  let e0 = Engine.events_fired n.engine in
  Engine.run ~until:t ~max_events:runaway_events n.engine;
  if Engine.events_fired n.engine - e0 >= runaway_events then
    raise
      (H.Stop
         (Printf.sprintf "%s ran away: %d events in %s" n.name runaway_events what))

(* Each network's share of the op is a part of its own (10 to 30 ms),
   normalised by its own reference samples. *)
let op ~sp (split : H.split) w i =
  let t0 = warmup +. (period *. float_of_int i) in
  let t1 = t0 +. period in
  feed w t1;
  Array.iteri
    (fun k n ->
      split.run @@ fun () ->
      H.span sp k (fun () ->
          n.reset_data ();
          List.iter
            (fun c ->
              (* A source without forwarding state sends nothing and
                 keeps its sequence number: that probe reaches nobody. *)
              let seq = n.send c in
              let got = Hashtbl.create 8 in
              if seq <> n.last_seq.(c) then begin
                n.last_seq.(c) <- seq;
                Hashtbl.replace n.probes (c, seq) got
              end;
              n.pending <- (c, got, t0) :: n.pending)
            probe_ranks;
          advance n t1 ~what:(Printf.sprintf "op %d" i)))
    w.nets

(* Checks every probe sent at least two periods ago: each member that
   joined at least [steady] before the probe, and has stayed, got it.
   Returns whether every network delivered every probe it owed. *)
let check w =
  Array.fold_left
    (fun ok n ->
      let now = Engine.now n.engine in
      let due, rest =
        List.partition (fun (_, _, sent) -> now -. sent >= 2.0 *. period) n.pending
      in
      n.pending <- rest;
      let missed =
        List.fold_left
          (fun missed (c, got, sent) ->
            missed
            || Hashtbl.fold
                 (fun h joined miss ->
                   miss || (joined <= sent -. steady && not (Hashtbl.mem got h)))
                 n.members.(c) false)
          false due
      in
      (* Late copies of a checked probe no longer count as duplicates. *)
      Hashtbl.filter_map_inplace
        (fun _ got -> if List.exists (fun (_, g, _) -> g == got) due then None else Some got)
        n.probes;
      if missed then n.missed_ops <- n.missed_ops + 1;
      ok && not missed)
    true w.nets

(* ---- The run ---------------------------------------------------------- *)

type counts = {
  events : int;
  control_hops : int;
  data_hops : int;
  spf : int;
  msgs : int list;  (** per protocol, [H.session_names] order *)
  majors : int;
}

let counts w =
  let sum f = Array.fold_left (fun acc n -> acc + f n) 0 w.nets in
  {
    events = sum (fun n -> Engine.events_fired n.engine);
    control_hops = sum (fun n -> (n.counters ()).Net.control_hops);
    data_hops = sum (fun n -> (n.counters ()).Net.data_hops);
    spf = H.counter "routing.spf_runs";
    msgs = H.proto_msgs ();
    majors = (Gc.quick_stat ()).Gc.major_collections;
  }

let run ~seed ~seconds ~trace =
  (* Set-up several times; keep the median, run the ops on the last. *)
  let last = ref None and setups = ref [] in
  for _ = 1 to setup_repeats do
    last := None;
    Gc.compact ();
    let w, st, nodes = setup ~seed in
    setups := st :: !setups;
    last := Some (w, nodes)
  done;
  let w, nodes = Option.get !last in
  let setup_s = H.median (Array.of_list (List.map H.total_s !setups)) in
  let part name =
    H.median (Array.of_list (List.map (fun st -> H.part_ms st name) !setups))
  in
  let heap_mb = float_of_int (Obj.reachable_words (Obj.repr w.table) * 8) /. 1048576.0 in
  let sp = H.spans (Array.map (fun n -> "churn." ^ n ^ "_ms") net_names) in
  let c0 = counts w in
  let c1 = ref c0 in
  let loop =
    H.run_ops ~min_ops:max_ops ~max_ops ~seconds ~trace ~sp ~window
      ~at_window:(fun _ -> c1 := counts w)
      (fun split i ->
        op ~sp split w i;
        Some (fun () -> check w))
  in
  (* Drain: one more period so the last op's probes can be checked. *)
  let failed =
    if loop.ended <> H.Completed then loop.failed
    else begin
      let t_end = warmup +. (period *. float_of_int (loop.ops + 1)) in
      feed w t_end;
      match Array.iter (fun n -> advance n t_end ~what:"the drain") w.nets with
      | () -> loop.failed + if check w then 0 else 1
      | exception H.Stop msg ->
          print_endline ("churn: " ^ msg);
          loop.failed + 1
    end
  in
  let c1 = !c1 in
  let per_op v = H.ratio (float_of_int v) (float_of_int loop.window) in
  let hops = c1.control_hops - c0.control_hops + c1.data_hops - c0.data_hops in
  let layers =
    [
      ("eventsim.events_per_op", per_op (c1.events - c0.events));
      ("netsim.control_hops_per_op", per_op (c1.control_hops - c0.control_hops));
      ("netsim.data_hops_per_op", per_op (c1.data_hops - c0.data_hops));
      ("routing.spf_per_op", per_op (c1.spf - c0.spf));
      ("gc.minor_words_per_op", loop.minor_words);
      ("gc.words_per_hop", H.ratio loop.minor_words (per_op hops));
      ("gc.major_per_op", per_op (c1.majors - c0.majors));
      ("topology.gen_ms", part "topology.gen");
      ("routing.fill_s", part "routing.fill" /. 1000.0);
      ("routing.spf_ms", part "routing.fill" /. float_of_int nodes);
      ("proto.attach_ms", part "proto.attach");
      ("churn.warmup_s", part "churn.warmup" /. 1000.0);
      ("routing.heap_mb", heap_mb);
    ]
    @ H.msgs_per_op ~per_op c0.msgs c1.msgs
    @ List.concat_map
        (fun n ->
          [
            ("churn." ^ n.name ^ "_ms", H.span_mean_ms sp ("churn." ^ n.name ^ "_ms"));
            ("churn." ^ n.name ^ ".missed_ops", float_of_int n.missed_ops);
            ("churn." ^ n.name ^ ".dup_deliveries", float_of_int n.dups);
            ("churn." ^ n.name ^ ".late_deliveries", float_of_int n.late);
          ])
        (Array.to_list w.nets)
  in
  (* Every hop is an engine event; the remaining events are timers,
     membership changes and wheel buckets.  Protocol handler time has no
     unit cost of its own and stays in the gap. *)
  let ladder units =
    let hops = per_op hops in
    let events = per_op (c1.events - c0.events) in
    [
      ("netsim hops", hops *. units "netsim.hop_ns" /. 1e6,
       Printf.sprintf "%.0f hops/op x hop" hops);
      ("proto mux dispatch", hops *. units "proto.mux_dispatch_ns" /. 1e6,
       Printf.sprintf "%.0f hops/op x dispatch" hops);
      ("eventsim other events", (events -. hops) *. units "eventsim.event_ns" /. 1e6,
       Printf.sprintf "%.0f events/op x event" (events -. hops));
    ]
  in
  Array.iter
    (fun n ->
      Printf.printf "churn: %s missed steady members in %d of %d ops; %d duplicate \
                     deliveries, %d deliveries > %.0f after a leave\n"
        n.name n.missed_ops loop.ops n.dups n.late steady)
    w.nets;
  let tenth = Array.length loop.op_ms / 10 in
  let mean a = H.ratio (H.sum a) (float_of_int (Array.length a)) in
  Printf.printf "churn: op time %.1f ms over the first tenth of the ops, %.1f ms \
                 over the last tenth\n"
    (mean (Array.sub loop.op_ms 0 tenth))
    (mean (Array.sub loop.op_ms (Array.length loop.op_ms - tenth) tenth));
  { H.loop; failed; setup_s; layers; ladder }
