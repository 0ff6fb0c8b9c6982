(* Soft-state expiry under suppressed refreshes: when the control
   plane goes silent (every join dropped at the wire), MFT entries
   must walk the paper's two-deadline ladder — stale at t1, destroyed
   at t2 — and REUNITE's source table must decay away entirely.  The
   drop filter stands in for an arbitrary control-plane outage; data
   keeps flowing until the state actually dies, which is the whole
   point of the two-deadline design. *)

module Net = Netsim.Network
module Pkt = Netsim.Packet

let isp_scenario n =
  let config = Experiments.Common.isp_config () in
  let rng = Stats.Rng.create 7 in
  Workload.Scenario.make rng config.Experiments.Common.graph
    ~source:config.Experiments.Common.source
    ~candidates:config.Experiments.Common.candidates ~n

let hbh_join_drop () =
  let s = isp_scenario 6 in
  let sess = Hbh.Protocol.create s.Workload.Scenario.table ~source:s.Workload.Scenario.source in
  List.iter (Hbh.Protocol.subscribe sess) s.Workload.Scenario.receivers;
  Hbh.Protocol.converge ~periods:12 sess;
  (sess, Hbh.Protocol.network sess)

let check_mft_ladder ~what mft ~engine ~run =
  let cfg = Hbh.Protocol.default_config in
  let entries () = Proto.Softstate.Table.entries mft in
  Alcotest.(check bool) (what ^ ": populated") false (entries () = []);
  let nw () = Eventsim.Engine.now engine in
  Alcotest.(check bool)
    (what ^ ": fresh before the outage bites")
    true
    (List.exists (fun e -> not (Proto.Softstate.entry_stale e ~now:(nw ()))) (entries ()));
  (* Past t1 with no refreshes: every entry stale, none dead yet would
     be too strong (staggered refresh times), but all must be stale. *)
  run (cfg.t1 +. 1.0);
  Alcotest.(check bool)
    (what ^ ": all stale past t1")
    true
    (List.for_all (fun e -> Proto.Softstate.entry_stale e ~now:(nw ())) (entries ()));
  Alcotest.(check bool)
    (what ^ ": still alive at t1 (data keeps flowing)")
    true
    (List.exists (fun e -> not (Proto.Softstate.entry_dead e ~now:(nw ()))) (entries ()));
  (* Past t2: destroyed. *)
  run (cfg.t2 -. cfg.t1 +. 1.0);
  Alcotest.(check bool)
    (what ^ ": all dead past t2")
    true
    (List.for_all (fun e -> Proto.Softstate.entry_dead e ~now:(nw ())) (entries ()))

let test_hbh_source_mft_decay () =
  let sess, net = hbh_join_drop () in
  Net.set_drop_filter net
    (Some
       (fun p ->
         match p.Pkt.payload with Hbh.Messages.Join _ -> true | _ -> false));
  check_mft_ladder ~what:"source MFT" (Hbh.Protocol.source_table sess)
    ~engine:(Hbh.Protocol.engine sess)
    ~run:(Hbh.Protocol.run_for sess)

let test_hbh_branching_mft_decay () =
  let sess, net = hbh_join_drop () in
  let branching =
    match
      List.filter
        (function _, Hbh.Tables.Forwarding _ -> true | _ -> false)
        (Hbh.Protocol.all_tables sess)
    with
    | (b, _) :: _ -> b
    | [] -> Alcotest.fail "no branching router on the ISP scenario"
  in
  let mft =
    match List.assoc_opt branching (Hbh.Protocol.all_tables sess) with
    | Some (Hbh.Tables.Forwarding mft) -> mft
    | _ -> Alcotest.fail "branching router lost its MFT"
  in
  (* Drop every control message: joins, trees and fusions all gone —
     the total-outage variant. *)
  Net.set_drop_filter net (Some (fun p -> p.Pkt.kind = Pkt.Control));
  check_mft_ladder ~what:"branching MFT" mft
    ~engine:(Hbh.Protocol.engine sess)
    ~run:(Hbh.Protocol.run_for sess)

let test_reunite_source_decay () =
  let s = isp_scenario 6 in
  let sess =
    Reunite.Protocol.create s.Workload.Scenario.table
      ~source:s.Workload.Scenario.source
  in
  List.iter (Reunite.Protocol.subscribe sess) s.Workload.Scenario.receivers;
  Reunite.Protocol.converge ~periods:12 sess;
  Alcotest.(check bool) "source table built" true
    (Reunite.Protocol.source_table sess <> None);
  let net = Reunite.Protocol.network sess in
  Net.set_drop_filter net
    (Some
       (fun p ->
         match p.Pkt.payload with
         | Reunite.Messages.Join _ -> true
         | _ -> false));
  let cfg = Reunite.Protocol.default_config in
  Reunite.Protocol.run_for sess (cfg.Reunite.Protocol.t2 +. 1.0);
  let nw = Eventsim.Engine.now (Reunite.Protocol.engine sess) in
  let decayed =
    match Reunite.Protocol.source_table sess with
    | None -> true
    | Some mft ->
        Proto.Softstate.entry_dead (Reunite.Tables.Mft.dst mft) ~now:nw
  in
  Alcotest.(check bool) "source table decayed by t2" true decayed

let () =
  Alcotest.run "softstate"
    [
      ( "expiry",
        [
          Alcotest.test_case "HBH source MFT: stale at t1, dead at t2" `Quick
            test_hbh_source_mft_decay;
          Alcotest.test_case "HBH branching MFT under total control outage"
            `Quick test_hbh_branching_mft_decay;
          Alcotest.test_case "REUNITE source table decays by t2" `Quick
            test_reunite_source_decay;
        ] );
    ]
