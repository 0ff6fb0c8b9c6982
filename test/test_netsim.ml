(* Tests for the packet-level network simulator: hop-by-hop delivery,
   handler interception, accounting, TTL, sinks and traces. *)

module G = Topology.Graph
module Net = Netsim.Network
module Pkt = Netsim.Packet

type payload = Ping | Probe of int

let line_network () =
  (* 0 - 1 - 2 - 3 with distinct directed delays. *)
  let g =
    G.make
      ~kinds:(Array.make 4 G.Router)
      ~links:[ (0, 1, 2, 5); (1, 2, 3, 5); (2, 3, 4, 5) ]
  in
  let table = Routing.Table.compute g in
  let engine = Eventsim.Engine.create () in
  (engine, Net.create engine table)

(* Per-node agents behind the network's one handler; every other node
   forwards. *)
let at net agents =
  Net.set_handler net (fun nt node p ->
      match List.assoc_opt node agents with
      | Some h -> h nt node p
      | None -> Net.Forward)

let test_delivery_and_delay () =
  let engine, net = line_network () in
  let got = ref None in
  at net
    [
      ( 3,
        fun _ node p ->
          if p.Pkt.dst = node then begin
            got := Some (Eventsim.Engine.now engine -. p.Pkt.born);
            Net.Consume
          end
          else Net.Forward );
    ];
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check (option (float 0.0))) "sum of directed delays" (Some 9.0) !got

let test_reverse_direction_delay () =
  let engine, net = line_network () in
  let got = ref None in
  at net
    [
      ( 0,
        fun _ node p ->
          if p.Pkt.dst = node then begin
            got := Some (Eventsim.Engine.now engine -. p.Pkt.born);
            Net.Consume
          end
          else Net.Forward );
    ];
  Net.originate net ~src:3 ~dst:0 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check (option (float 0.0))) "reverse costs differ" (Some 15.0) !got

let test_handler_sees_transit () =
  let engine, net = line_network () in
  let seen = ref [] in
  let agent _ node _ =
    seen := node :: !seen;
    Net.Forward
  in
  at net [ (1, agent); (2, agent) ];
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check (list int)) "every hop inspected" [ 1; 2 ] (List.rev !seen)

let test_consume_stops_forwarding () =
  let engine, net = line_network () in
  let reached_3 = ref false in
  at net
    [
      (1, fun _ _ _ -> Net.Consume);
      ( 3,
        fun _ _ _ ->
          reached_3 := true;
          Net.Consume );
    ];
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check bool) "intercepted at 1" false !reached_3;
  Alcotest.(check int) "consumed counter" 1 (Net.counters net).Net.consumed

let test_data_accounting () =
  let engine, net = line_network () in
  Net.sink_acquire net 3;
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Data (Probe 1);
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Data (Probe 2);
  Eventsim.Engine.run engine;
  Alcotest.(check (list (pair (pair int int) int)))
    "two copies per link"
    [ ((0, 1), 2); ((1, 2), 2); ((2, 3), 2) ]
    (Net.data_link_loads net);
  Alcotest.(check int) "two deliveries" 2 (List.length (Net.data_deliveries net));
  Net.reset_data_accounting net;
  Alcotest.(check int) "reset clears" 0 (List.length (Net.data_link_loads net))

let test_control_not_in_data_loads () =
  let engine, net = line_network () in
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check int) "no data loads" 0 (List.length (Net.data_link_loads net));
  Alcotest.(check int) "control hops counted" 3 (Net.counters net).Net.control_hops

let test_sink_gates_delivery_recording () =
  let engine, net = line_network () in
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Data (Probe 1);
  Eventsim.Engine.run engine;
  Alcotest.(check int) "router without sink: no delivery" 0
    (List.length (Net.data_deliveries net));
  Net.sink_acquire net 3;
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Data (Probe 2);
  Eventsim.Engine.run engine;
  Alcotest.(check int) "sink records" 1 (List.length (Net.data_deliveries net))

let test_sink_acquires_counted () =
  let engine, net = line_network () in
  let deliveries () = List.length (Net.data_deliveries net) in
  let send () =
    Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Data (Probe 1);
    Eventsim.Engine.run engine
  in
  Net.sink_acquire net 3;
  Net.sink_acquire net 3;
  Net.sink_release net 3;
  send ();
  Alcotest.(check int) "one release of two keeps the sink" 1 (deliveries ());
  let snap = Net.snapshot net in
  Net.sink_release net 3;
  send ();
  Alcotest.(check int) "the last release stops recording" 1 (deliveries ());
  Net.restore net snap;
  send ();
  Alcotest.(check int) "restore brings the acquire back" 2 (deliveries ())

(* 0 - 1 - 3 is cheaper than 0 - 2 - 3; failing 1-3 reroutes. *)
let diamond_network () =
  let g =
    G.make
      ~kinds:(Array.make 4 G.Router)
      ~links:[ (0, 1, 1, 1); (1, 3, 1, 1); (0, 2, 2, 2); (2, 3, 2, 2) ]
  in
  let engine = Eventsim.Engine.create () in
  (engine, Net.create engine (Routing.Table.compute g))

let next_hops net =
  List.init 4 (fun d ->
      List.init 4 (fun u -> Routing.Table.next_hop (Net.table net) u ~dest:d))

let spf_runs () =
  Obs.Metrics.value
    (Obs.Metrics.counter (Obs.Metrics.default ()) "routing.spf_runs")

let test_restore_keeps_routes () =
  let engine, net = diamond_network () in
  let g = Net.graph net in
  let before = next_hops net in
  let generation = G.generation g in
  let snap = Net.snapshot net in
  G.set_multicast_capable g 1 false;
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Net.restore net snap;
  let runs = spf_runs () in
  Alcotest.(check (list (list (option int)))) "same next hops" before
    (next_hops net);
  Alcotest.(check int) "no SPF rerun" runs (spf_runs ());
  Alcotest.(check int) "generation unchanged" generation (G.generation g);
  Alcotest.(check bool) "capability flag restored" true
    (G.multicast_capable g 1)

let test_restore_after_link_change () =
  let _, net = diamond_network () in
  let before = next_hops net in
  let snap = Net.snapshot net in
  Net.set_link_up net 1 3 false;
  ignore (Net.reconverge net);
  Alcotest.(check bool) "the failure reroutes" false (next_hops net = before);
  Net.restore net snap;
  Alcotest.(check bool) "link back up" true (G.link_up (Net.graph net) 1 3);
  Alcotest.(check (list (list (option int)))) "pre-save next hops" before
    (next_hops net)

(* A restore across a link change brings back the snapshot's own
   cached in-trees: exactly the destinations cached at the snapshot
   answer with no SPF run, each with its pre-save next hops, and one
   snapshot serves two restores. *)
let test_restore_reinstates_trees () =
  let graph = Topology.Isp.create () in
  let table = Routing.Table.compute graph in
  let net = Net.create (Eventsim.Engine.create ()) table in
  let src = Topology.Isp.source in
  let dst = List.hd Topology.Isp.receiver_hosts in
  let at_snapshot = List.sort_uniq compare (src :: Topology.Isp.receiver_hosts) in
  List.iter (fun d -> ignore (Routing.Table.in_tree table d)) at_snapshot;
  let all = List.init (G.node_count graph) Fun.id in
  (* The destinations a query answers with no SPF run; probing caches
     the rest. *)
  let cached () =
    List.filter
      (fun d ->
        let runs = spf_runs () in
        ignore (Routing.Table.in_tree table d);
        spf_runs () = runs)
      all
  in
  let hops d =
    List.map (fun u -> Routing.Table.next_hop table u ~dest:d) all
  in
  let before = List.map hops at_snapshot in
  (* a router-to-router link on the source's path to [dst] *)
  let rec router_link = function
    | a :: (b :: _ as rest) ->
        if G.is_router graph a && G.is_router graph b then (a, b)
        else router_link rest
    | _ -> Alcotest.fail "no router link on the path"
  in
  let a, b = router_link (Routing.Table.path table src dst) in
  let snap = Net.snapshot net in
  for round = 1 to 2 do
    let name what = Printf.sprintf "round %d: %s" round what in
    Net.set_link_up net a b false;
    Alcotest.(check bool) (name "the failure reroutes") true
      (Net.reconverge net > 0);
    Net.restore net snap;
    Alcotest.(check (list int)) (name "the snapshot's cache") at_snapshot
      (cached ());
    Alcotest.(check (list (list (option int))))
      (name "pre-save next hops") before
      (List.map hops at_snapshot)
  done

(* The routing detection-lag window cannot be checkpointed: between a
   link change and its reconvergence a snapshot is refused, after it
   one is taken. *)
let test_snapshot_refused_while_pending () =
  let _, net = diamond_network () in
  List.iter
    (fun up ->
      let what = if up then "restore" else "failure" in
      Net.set_link_up net 1 3 up;
      Alcotest.(check bool) (what ^ " pending: refused") true
        (match Net.snapshot net with
        | _ -> false
        | exception Invalid_argument _ -> true);
      ignore (Net.reconverge net);
      ignore (Net.snapshot net))
    [ false; true ]

(* A crash is simulation state: restoring a snapshot taken while the
   node was down takes a later restart back. *)
let test_restore_keeps_crash () =
  let engine, net = diamond_network () in
  Net.set_node_up net 1 false;
  let snap = Net.snapshot net in
  Net.set_node_up net 1 true;
  Alcotest.(check bool) "restarted" true (Net.node_up net 1);
  Net.restore net snap;
  Alcotest.(check bool) "down again" false (Net.node_up net 1);
  Alcotest.(check (list bool)) "the others stay up" [ true; true; true ]
    (List.map (Net.node_up net) [ 0; 2; 3 ]);
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check int) "traffic through it drops" 1
    (Net.counters net).Net.dropped_node_down

(* ---- Fault injector: link state derived from stored facts ----------- *)

module P = Fault.Plan

(* Step the injector on the line 0-1-2-3 and check link 1-2's graph
   flag after every step: a link is up iff it is not failed, in no
   open cut, and both endpoints are up. *)
let injector_steps steps () =
  let _, net = line_network () in
  let inj = Fault.Injector.create net in
  List.iter
    (fun (action, up) ->
      Fault.Injector.apply inj action;
      Alcotest.(check bool)
        ("link 1-2 after " ^ String.trim (P.to_string (P.make [ (0.0, action) ])))
        up
        (G.link_up (Net.graph net) 1 2))
    steps

let crash_then_link_up =
  [
    (P.Crash { node = 1 }, false);
    (P.Link_up { u = 1; v = 2 }, false);
    (P.Restart { node = 1 }, true);
  ]

let down_crash_restart =
  [
    (P.Link_down { u = 1; v = 2 }, false);
    (P.Crash { node = 1 }, false);
    (P.Restart { node = 1 }, false);
    (P.Link_up { u = 2; v = 1 }, true);
  ]

let down_while_crashed =
  [
    (P.Crash { node = 2 }, false);
    (P.Link_down { u = 1; v = 2 }, false);
    (P.Restart { node = 2 }, false);
    (P.Link_up { u = 1; v = 2 }, true);
  ]

let cut_over_crash =
  [
    (P.Partition_named { name = "p"; island = [ 2; 3 ] }, false);
    (P.Crash { node = 1 }, false);
    (P.Heal_named { name = "p" }, false);
    (P.Restart { node = 1 }, true);
  ]

(* The facts are checkpointed with the network: from one save taken
   before a crash, each restore brings back the link and its failed
   neighbour 2-3, and the crash applies afresh instead of finding
   stale bookkeeping. *)
let test_injector_restore_twice () =
  let _, net = line_network () in
  let g = Net.graph net in
  let inj = Fault.Injector.create net in
  Fault.Injector.apply inj (P.Link_down { u = 3; v = 2 });
  ignore (Net.reconverge net);
  let snap = Net.snapshot net and facts = Fault.Injector.save inj in
  for round = 1 to 2 do
    let check what expected got =
      Alcotest.(check bool) (Printf.sprintf "round %d: %s" round what) expected got
    in
    Fault.Injector.apply inj (P.Crash { node = 1 });
    Fault.Injector.apply inj (P.Link_up { u = 2; v = 3 });
    check "crash takes 1-2 down" false (G.link_up g 1 2);
    check "link-up brings 2-3 back" true (G.link_up g 2 3);
    Net.restore net snap;
    Fault.Injector.restore inj facts;
    check "1-2 restored" true (G.link_up g 1 2);
    check "2-3 down again" false (G.link_up g 2 3);
    check "router 1 up" true (Net.node_up net 1);
    Alcotest.(check (list (pair int int)))
      "failed links restored" [ (2, 3) ] (Fault.Injector.failed_links inj)
  done

(* [reconverge] returns exactly the number of (node, destination) next
   hops that moved, over all destinations: a brute force against fresh
   SPF runs on the graph before and after each batch of link changes.
   The table's own next hops must match the fresh ones afterwards. *)
let fresh_next_hops g =
  Array.init (G.node_count g) (fun d ->
      Array.init (G.node_count g)
        (Routing.Dijkstra.next (Routing.Dijkstra.to_dest g d)))

let moved before after =
  let c = ref 0 in
  Array.iteri
    (fun d row ->
      Array.iteri (fun u h -> if after.(d).(u) <> h then incr c) row)
    before;
  !c

let table_next_hops net =
  let n = G.node_count (Net.graph net) in
  Array.init n (fun d ->
      Array.init n (fun u ->
          match Routing.Table.next_hop (Net.table net) u ~dest:d with
          | Some h -> h
          | None -> -1))

(* The SPF work of the path every run takes, {!Net.set_link_up} then
   {!Net.reconverge}, on a seeded random graph with five destinations
   in use.  The link change computes every other destination's in-tree
   on the old graph.  Reconverging after the failure of a link on a
   tree in use reruns SPF for exactly the destinations whose tree
   crossed it (a rerun replaces the tree); after the restore, for every
   destination.  Each time the next hops equal a fresh table's. *)
let test_reconverge_spf_work () =
  let rng = Stats.Rng.create 11 in
  let g =
    Topology.Generators.random_connected ~hosts:false rng ~n:60 ~avg_degree:4.0
  in
  G.randomize_costs g rng ~lo:1 ~hi:10;
  let n = G.node_count g in
  let table = Routing.Table.compute g in
  let net = Net.create (Eventsim.Engine.create ()) table in
  let live = [ 0; 13; 26; 39; 52 ] in
  List.iter (fun d -> ignore (Routing.Table.in_tree table d)) live;
  let u = 59 in
  let v = Routing.Dijkstra.next (Routing.Table.in_tree table 0) u in
  let trees () = Array.init n (Routing.Table.in_tree table) in
  let step what ~up ~link_spf ~rerun =
    let runs = spf_runs () in
    Net.set_link_up net u v up;
    Alcotest.(check int) (what ^ ": SPF runs of the link change") link_spf
      (spf_runs () - runs);
    let old = trees () in
    let expected = List.filter (rerun old) (List.init n Fun.id) in
    let runs = spf_runs () in
    ignore (Net.reconverge net);
    Alcotest.(check int) (what ^ ": SPF runs of reconverge")
      (List.length expected) (spf_runs () - runs);
    let now = trees () in
    Alcotest.(check (list int)) (what ^ ": the trees replaced") expected
      (List.filter (fun d -> old.(d) != now.(d)) (List.init n Fun.id));
    Alcotest.(check bool) (what ^ ": next hops of a fresh table") true
      (table_next_hops net = fresh_next_hops g);
    List.length expected
  in
  let crossed =
    step "failure" ~up:false ~link_spf:(n - List.length live)
      ~rerun:(fun old d ->
        Routing.Dijkstra.next old.(d) u = v
        || Routing.Dijkstra.next old.(d) v = u)
  in
  Alcotest.(check bool) "the failure spares some trees" true
    (crossed > 0 && crossed < n);
  ignore (step "restore" ~up:true ~link_spf:0 ~rerun:(fun _ _ -> true))

let prop_reconverge_counts name make_graph =
  QCheck.Test.make ~count:40
    ~name:(name ^ ": reconverge counts the moved next hops")
    QCheck.(
      list_of_size
        Gen.(1 -- 6)
        (list_of_size Gen.(1 -- 3) (pair small_nat bool)))
    (fun batches ->
      let g = make_graph () in
      let links = Array.of_list (G.links g) in
      let net =
        Net.create (Eventsim.Engine.create ()) (Routing.Table.compute g)
      in
      List.for_all
        (fun batch ->
          let before = fresh_next_hops g in
          List.iter
            (fun (i, up) ->
              let l = links.(i mod Array.length links) in
              Net.set_link_up net l.G.u l.G.v up)
            batch;
          let changed = Net.reconverge net in
          let after = fresh_next_hops g in
          changed = moved before after && table_next_hops net = after)
        batches)

(* A packet still in flight at the snapshot is rewound with it: after
   a restore it reaches the same nodes with the same ttl and previous
   hop as the first time, although that run already decremented its
   ttl and moved its [via] on. *)
let test_restore_rewinds_inflight () =
  let graph = Topology.Isp.create () in
  let table = Routing.Table.compute graph in
  let engine = Eventsim.Engine.create () in
  let net = Net.create engine table in
  let src = Topology.Isp.source in
  let dst =
    List.find
      (fun h -> Routing.Path.hops (Routing.Table.path table src h) >= 4)
      Topology.Isp.receiver_hosts
  in
  let seen = ref [] in
  Net.set_handler net (fun _ node p ->
      seen := (node, p.Pkt.ttl, p.Pkt.via) :: !seen;
      Net.Forward);
  Net.originate net ~src ~dst ~kind:Pkt.Data Ping;
  Eventsim.Engine.run ~max_events:2 engine;
  let snap = Net.snapshot net in
  let after_snapshot () =
    seen := [];
    Eventsim.Engine.run engine;
    List.rev !seen
  in
  let first = after_snapshot () in
  Net.restore net snap;
  let second = after_snapshot () in
  Alcotest.(check bool) "still mid-path at the snapshot" true
    (List.length first >= 2);
  Alcotest.(check (list (triple int int int))) "same (node, ttl, via) run"
    first second

let test_counters_are_a_copy () =
  let engine, net = line_network () in
  let before = Net.counters net in
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check int) "earlier copy unchanged" 0 before.Net.control_hops;
  Alcotest.(check int) "live count moved" 3 (Net.counters net).Net.control_hops

let test_host_is_implicit_sink () =
  let b = Topology.Builder.create () in
  let r0 = Topology.Builder.add_router b in
  let r1 = Topology.Builder.add_router b in
  Topology.Builder.add_link b r0 r1 ();
  let h = Topology.Builder.add_host b ~router:r1 () in
  let g = Topology.Builder.build b in
  let table = Routing.Table.compute g in
  let engine = Eventsim.Engine.create () in
  let net = Net.create engine table in
  Net.originate net ~src:r0 ~dst:h ~kind:Pkt.Data (Probe 1);
  Eventsim.Engine.run engine;
  Alcotest.(check int) "host delivery recorded" 1
    (List.length (Net.data_deliveries net))

let test_ttl_expiry () =
  let g =
    G.make
      ~kinds:(Array.make 4 G.Router)
      ~links:[ (0, 1, 1, 1); (1, 2, 1, 1); (2, 3, 1, 1) ]
  in
  let tbl = Routing.Table.compute g in
  let eng = Eventsim.Engine.create () in
  let nt = Net.create ~default_ttl:1 eng tbl in
  Net.originate nt ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run eng;
  Alcotest.(check int) "dropped by ttl" 1 (Net.counters nt).Net.dropped_ttl

(* Minor words per call of [f], after 1000 warm-up calls have grown
   whatever arrays it fills. *)
let words_per ~iters f =
  for _ = 1 to 1000 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

(* Link loads are an array indexed by directed link id, so a data hop's
   tally is one increment: with the accounting reset before every
   packet (as a probe does), a data packet across the line costs
   exactly what a control packet does.  Node 3 is a router with no
   sink, so neither packet is a delivery. *)
let test_data_tally_allocates_nothing () =
  let engine, net = line_network () in
  let send kind () =
    Net.reset_data_accounting net;
    Net.originate net ~src:0 ~dst:3 ~kind Ping;
    Eventsim.Engine.run engine
  in
  let control = words_per ~iters:10_000 (send Pkt.Control) in
  let data = words_per ~iters:10_000 (send Pkt.Data) in
  Alcotest.(check (float 0.0)) "data costs what control does" control data;
  Alcotest.(check (list (pair (pair int int) int)))
    "the last packet's loads" [ ((0, 1), 1); ((1, 2), 1); ((2, 3), 1) ]
    (Net.data_link_loads net)

let test_unreachable_drop () =
  let g =
    G.make ~kinds:(Array.make 3 G.Router) ~links:[ (0, 1, 1, 1) ]
  in
  let tbl = Routing.Table.compute g in
  let eng = Eventsim.Engine.create () in
  let net = Net.create eng tbl in
  Net.originate net ~src:0 ~dst:2 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run eng;
  Alcotest.(check int) "unreachable counted" 1
    (Net.counters net).Net.dropped_unreachable

(* ---- Fault injection -------------------------------------------------- *)

let test_bernoulli_loss_drop () =
  let engine, net = line_network () in
  Net.set_fault_rng net (Stats.Rng.create 11);
  Net.set_default_loss net 1.0;
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  let c = Net.counters net in
  Alcotest.(check int) "lost on the wire" 1 c.Net.dropped_loss;
  (* Rate 0 turns loss off and traffic flows again. *)
  Net.set_default_loss net 0.0;
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check int) "no further losses" 1 (Net.counters net).Net.dropped_loss

let test_link_down_drop () =
  let engine, net = line_network () in
  Net.set_link_up net 1 2 false;
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check int) "dead link counted" 1
    (Net.counters net).Net.dropped_link_down

let test_node_down_drop_and_events () =
  let engine, net = line_network () in
  let transitions = ref [] in
  Net.on_node_event net (fun ~up n -> transitions := (up, n) :: !transitions);
  Net.set_node_up net 2 false;
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check int) "crashed node drops traffic" 1
    (Net.counters net).Net.dropped_node_down;
  Net.set_node_up net 2 true;
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check int) "restart restores forwarding" 1
    (Net.counters net).Net.dropped_node_down;
  Alcotest.(check (list (pair bool int)))
    "crash then restart observed" [ (false, 2); (true, 2) ]
    (List.rev !transitions)

let test_drop_filter () =
  let engine, net = line_network () in
  Net.set_drop_filter net (Some (fun p -> p.Pkt.kind = Pkt.Control));
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check int) "suppressed before the wire" 1
    (Net.counters net).Net.dropped_filtered;
  Net.set_drop_filter net None;
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check int) "filter removal restores flow" 1
    (Net.counters net).Net.dropped_filtered

let test_self_addressed_loopback () =
  let engine, net = line_network () in
  let got = ref false in
  at net
    [
      ( 0,
        fun _ node p ->
          if p.Pkt.dst = node then got := true;
          Net.Consume );
    ];
  Net.originate net ~src:0 ~dst:0 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check bool) "handler sees own packet" true !got

let test_rewrite_preserves_born () =
  let engine, net = line_network () in
  let end_delay = ref None in
  (* Node 2 rewrites data addressed to it toward 3, as a branching
     router would; delivery delay must span the whole trip. *)
  at net
    [
      ( 2,
        fun nt node p ->
          if p.Pkt.dst = node then begin
            Net.emit nt ~at:node (Pkt.rewrite p ~src:node ~dst:3 ());
            Net.Consume
          end
          else Net.Forward );
      ( 3,
        fun _ node p ->
          if p.Pkt.dst = node then begin
            end_delay := Some (Eventsim.Engine.now engine -. p.Pkt.born);
            Net.Consume
          end
          else Net.Forward );
    ];
  Net.originate net ~src:0 ~dst:2 ~kind:Pkt.Data (Probe 9);
  Eventsim.Engine.run engine;
  Alcotest.(check (option (float 0.0))) "cumulative delay" (Some 9.0) !end_delay

let test_via_tracks_last_hop () =
  let engine, net = line_network () in
  let vias = ref [] in
  let agent _ _ p =
    vias := p.Pkt.via :: !vias;
    Net.Forward
  in
  at net [ (1, agent); (2, agent); (3, agent) ];
  Net.originate net ~src:0 ~dst:3 ~kind:Pkt.Control Ping;
  Eventsim.Engine.run engine;
  Alcotest.(check (list int)) "previous hop at each arrival" [ 0; 1; 2 ]
    (List.rev !vias)

let test_one_handler_per_network () =
  let _, net = line_network () in
  let forward _ _ _ = Net.Forward in
  Net.set_handler net forward;
  Alcotest.check_raises "a second handler is refused"
    (Invalid_argument "Network.set_handler: a handler is already set")
    (fun () -> Net.set_handler net forward)

let test_trace_capacity () =
  let tr = Obs.Trace.create ~enabled:true ~capacity:3 () in
  for i = 1 to 5 do
    Obs.Trace.notef tr ~time:(float_of_int i) ~node:0 "%d" i
  done;
  Alcotest.(check int) "bounded" 3 (Obs.Trace.length tr);
  let first_summary =
    match Obs.Trace.last tr max_int with
    | { Obs.Event.kind = Obs.Event.Note s; _ } :: _ -> s
    | _ -> ""
  in
  Alcotest.(check string) "oldest dropped" "3" first_summary

let test_trace_disabled_is_free () =
  let tr = Obs.Trace.create () in
  Obs.Trace.notef tr ~time:1.0 ~node:0 "x";
  Alcotest.(check int) "nothing recorded" 0 (Obs.Trace.length tr)

let () =
  Alcotest.run "netsim"
    [
      ( "forwarding",
        [
          Alcotest.test_case "delivery and delay" `Quick test_delivery_and_delay;
          Alcotest.test_case "reverse delay differs" `Quick test_reverse_direction_delay;
          Alcotest.test_case "transit inspection" `Quick test_handler_sees_transit;
          Alcotest.test_case "consume stops" `Quick test_consume_stops_forwarding;
          Alcotest.test_case "self-addressed loopback" `Quick test_self_addressed_loopback;
          Alcotest.test_case "rewrite preserves born" `Quick test_rewrite_preserves_born;
          Alcotest.test_case "via tracks last hop" `Quick test_via_tracks_last_hop;
          Alcotest.test_case "one handler per network" `Quick
            test_one_handler_per_network;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "data loads and deliveries" `Quick test_data_accounting;
          Alcotest.test_case "control not counted as data" `Quick
            test_control_not_in_data_loads;
          Alcotest.test_case "sink gating" `Quick test_sink_gates_delivery_recording;
          Alcotest.test_case "sink acquires counted" `Quick test_sink_acquires_counted;
          Alcotest.test_case "counters are a copy" `Quick test_counters_are_a_copy;

          Alcotest.test_case "host implicit sink" `Quick test_host_is_implicit_sink;
          Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
          Alcotest.test_case "unreachable" `Quick test_unreachable_drop;
          Alcotest.test_case "data tally allocates nothing" `Quick
            test_data_tally_allocates_nothing;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "restore keeps routes" `Quick
            test_restore_keeps_routes;
          Alcotest.test_case "restore after a link change" `Quick
            test_restore_after_link_change;
          Alcotest.test_case "restore rewinds in-flight packets" `Quick
            test_restore_rewinds_inflight;
          Alcotest.test_case "restore reinstates the cached trees" `Quick
            test_restore_reinstates_trees;
          Alcotest.test_case "restore keeps a crash" `Quick
            test_restore_keeps_crash;
          Alcotest.test_case "snapshot refused while a link change pends"
            `Quick test_snapshot_refused_while_pending;
        ] );
      ( "injector",
        [
          Alcotest.test_case "crash then link-up: down until restart" `Quick
            (injector_steps crash_then_link_up);
          Alcotest.test_case "link-down, crash, restart: stays down" `Quick
            (injector_steps down_crash_restart);
          Alcotest.test_case "link-down while crashed, restart, link-up"
            `Quick (injector_steps down_while_crashed);
          Alcotest.test_case "cut over a crash, heal, restart" `Quick
            (injector_steps cut_over_crash);
          Alcotest.test_case "save before a crash, restore twice" `Quick
            test_injector_restore_twice;
        ] );
      ( "reconverge",
        Alcotest.test_case "SPF reruns only for trees that crossed the link"
          `Quick test_reconverge_spf_work
        :: List.map QCheck_alcotest.to_alcotest
             [
               prop_reconverge_counts "ISP" Topology.Isp.create;
               prop_reconverge_counts "RAND50" (fun () ->
                   (Experiments.Common.rand50_config ~seed:7)
                     .Experiments.Common.graph);
             ] );
      ( "faults",
        [
          Alcotest.test_case "bernoulli loss" `Quick test_bernoulli_loss_drop;
          Alcotest.test_case "link down" `Quick test_link_down_drop;
          Alcotest.test_case "node crash/restart" `Quick
            test_node_down_drop_and_events;
          Alcotest.test_case "drop filter" `Quick test_drop_filter;
        ] );
      ( "trace",
        [
          Alcotest.test_case "capacity bound" `Quick test_trace_capacity;
          Alcotest.test_case "disabled free" `Quick test_trace_disabled_is_free;
        ] );
    ]
