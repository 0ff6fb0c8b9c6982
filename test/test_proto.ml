(* Tests for the shared protocol runtime (lib/proto).

   Two halves:

   1. Unit tests for [Proto.Softstate] — the generic two-deadline
      soft-state table: refresh ladders, timed marks, expiry sweeps and
      install-order iteration.  (Added with the runtime itself.)

   2. A seeded trace-equivalence oracle: on both paper topologies (ISP
      and the 50-node random graph), each protocol runs a fixed
      subscribe / converge / probe / crash / restart script and every
      data delivery is folded into a digest.  The digests below were
      captured BEFORE the protocols were ported onto [Proto.Session];
      the port must not move a single packet. *)

module Engine = Eventsim.Engine
module Faults = Experiments.Faults
module Sut = Verif.Sut
module Common = Experiments.Common
module Ss = Proto.Softstate

(* ---- Softstate unit tests ---------------------------------------- *)

let dl = { Ss.t1 = 10.0; t2 = 25.0 }

(* Entries in install order, the order [first_fresh] scans. *)
let in_order tb =
  List.sort (fun (a : Ss.entry) b -> compare a.Ss.seq b.Ss.seq) (Ss.Table.entries tb)

let test_expiry_ladder () =
  let tb = Ss.Table.create () in
  let e = Ss.Table.add_fresh tb dl ~now:0.0 7 in
  Alcotest.(check bool) "fresh before t1" false (Ss.entry_stale e ~now:9.9);
  Alcotest.(check bool) "stale at t1" true (Ss.entry_stale e ~now:10.0);
  Alcotest.(check bool) "not yet dead" false (Ss.entry_dead e ~now:24.9);
  Alcotest.(check bool) "dead at t2" true (Ss.entry_dead e ~now:25.0);
  Ss.Table.expire tb ~now:24.9;
  Alcotest.(check int) "survives sweep before t2" 1 (Ss.Table.size tb);
  Ss.Table.expire tb ~now:25.0;
  Alcotest.(check int) "swept at t2" 0 (Ss.Table.size tb)

let test_refresh_restarts_deadlines () =
  let tb = Ss.Table.create () in
  ignore (Ss.Table.add_fresh tb dl ~now:0.0 3);
  Alcotest.(check bool) "refresh hits" true (Ss.Table.refresh tb dl ~now:20.0 3);
  let e = Option.get (Ss.Table.find tb 3) in
  Alcotest.(check bool) "fresh again" false (Ss.entry_stale e ~now:29.9);
  Alcotest.(check bool) "t2 pushed out" false (Ss.entry_dead e ~now:44.9);
  Alcotest.(check bool) "dies at the new t2" true (Ss.entry_dead e ~now:45.0);
  Alcotest.(check bool) "refresh misses absent" false
    (Ss.Table.refresh tb dl ~now:0.0 99)

let test_stale_insert_keeps_t1_expired () =
  let tb = Ss.Table.create () in
  let e = Ss.Table.add_stale tb dl ~now:0.0 4 in
  Alcotest.(check bool) "born stale" true (Ss.entry_stale e ~now:0.0);
  ignore (Ss.Table.add_stale tb dl ~now:5.0 4);
  Alcotest.(check bool) "re-add never downgrades t1" true
    (Ss.entry_stale e ~now:5.0);
  Alcotest.(check bool) "but t2 is refreshed" false (Ss.entry_dead e ~now:29.9)

let test_timed_mark_decays () =
  let tb = Ss.Table.create () in
  let e = Ss.Table.add_fresh tb dl ~now:0.0 5 in
  Alcotest.(check bool) "born unmarked" false (Ss.entry_marked e ~now:0.0);
  Alcotest.(check bool) "mark hits" true (Ss.Table.mark tb dl ~now:0.0 5);
  Alcotest.(check bool) "marked inside t1" true (Ss.entry_marked e ~now:9.9);
  Alcotest.(check bool) "mark decays at t1" false (Ss.entry_marked e ~now:10.0);
  Alcotest.(check (list int)) "data skips marked" []
    (Ss.Table.data_targets tb ~now:5.0);
  Alcotest.(check (list int)) "tree refresh keeps marked" [ 5 ]
    (Ss.Table.fresh_targets tb ~now:5.0);
  Alcotest.(check bool) "mark misses absent" false
    (Ss.Table.mark tb dl ~now:0.0 99)

let test_install_order_projections () =
  let tb = Ss.Table.create () in
  ignore (Ss.Table.add_fresh tb dl ~now:0.0 9);
  ignore (Ss.Table.add_fresh tb dl ~now:1.0 2);
  ignore (Ss.Table.add_fresh tb dl ~now:2.0 6);
  Alcotest.(check (list int)) "nodes ascending" [ 2; 6; 9 ] (Ss.Table.nodes tb);
  Alcotest.(check (list int)) "install order" [ 9; 2; 6 ]
    (List.map (fun (e : Ss.entry) -> e.Ss.node) (in_order tb));
  Alcotest.(check (option int)) "oldest fresh" (Some 9)
    (Ss.Table.first_fresh tb ~now:5.0);
  Ss.Table.remove tb 9;
  Alcotest.(check (option int)) "next oldest after removal" (Some 2)
    (Ss.Table.first_fresh tb ~now:5.0)

(* A copy owns its deadlines: the verifier checkpoints tables with
   [Table.copy] (and HBH's control entry with [copy_entry]) and then
   runs on, so a deadline record shared between a copy and its original
   would let the live run rewrite the checkpoint.  Every deadline
   write goes one way and then the other, and the other side must read
   what it read before. *)
let test_copies_share_no_deadlines () =
  let deadlines (e : Ss.entry) =
    let tm = e.Ss.tm in
    (tm.Ss.marked_until, tm.Ss.fresh_until, tm.Ss.expires_at)
  in
  let view tb =
    List.map (fun (e : Ss.entry) -> (e.Ss.node, deadlines e)) (Ss.Table.entries tb)
  in
  let build () =
    let tb = Ss.Table.create () in
    ignore (Ss.Table.add_fresh tb dl ~now:0.0 1);
    ignore (Ss.Table.add_stale tb dl ~now:0.0 2);
    ignore (Ss.Table.add_fresh tb dl ~now:0.0 3);
    ignore (Ss.Table.mark tb dl ~now:0.0 3);
    tb
  in
  let touch tb =
    let now = 5.0 in
    ignore (Ss.Table.refresh tb dl ~now 1);
    ignore (Ss.Table.mark tb dl ~now 1);
    ignore (Ss.Table.add_stale tb dl ~now 2);
    Ss.force_stale (Option.get (Ss.Table.find tb 3)) ~now
  in
  let rows = Alcotest.(list (pair int (triple (float 0.0) (float 0.0) (float 0.0)))) in
  List.iter
    (fun (what, written, other) ->
      let tb = build () in
      let copy = Ss.Table.copy tb in
      let before = view tb in
      touch (written tb copy);
      Alcotest.check rows (what ^ ": the other side unchanged") before
        (view (other tb copy));
      Alcotest.(check bool) (what ^ ": the written side moved") false
        (view (written tb copy) = before))
    [
      ("writes to the copy", (fun _ c -> c), fun t _ -> t);
      ("writes to the original", (fun t _ -> t), fun _ c -> c);
    ];
  let e = Ss.entry dl ~now:0.0 4 in
  let c = Ss.copy_entry e in
  let write x =
    Ss.refresh_entry x dl ~now:5.0;
    Ss.force_stale x ~now:6.0
  in
  write c;
  Alcotest.(check (triple (float 0.0) (float 0.0) (float 0.0)))
    "copy_entry: writes to the copy" (neg_infinity, 10.0, 25.0) (deadlines e);
  let c' = Ss.copy_entry c in
  write e;
  Alcotest.(check (triple (float 0.0) (float 0.0) (float 0.0)))
    "copy_entry: writes to the original" (deadlines c') (deadlines c)

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

(* The deadlines are stored flat, so every periodic update of an
   existing entry is a plain store: no float is boxed. *)
let test_updates_allocate_nothing () =
  let tb = Ss.Table.create () in
  for n = 0 to 7 do
    ignore (Ss.Table.add_fresh tb dl ~now:0.0 n)
  done;
  let e = Ss.entry dl ~now:0.0 9 in
  let now = 5.0 in
  List.iter
    (fun (what, f) ->
      Alcotest.(check (float 0.0)) what 0.0 (words_per ~iters:10_000 f))
    [
      ("Table.refresh", fun () -> ignore (Ss.Table.refresh tb dl ~now 3 : bool));
      ("Table.mark", fun () -> ignore (Ss.Table.mark tb dl ~now 3 : bool));
      ( "Table.add_stale, existing entry",
        fun () -> ignore (Ss.Table.add_stale tb dl ~now 3 : Ss.entry) );
      ( "Table.add_fresh, existing entry",
        fun () -> ignore (Ss.Table.add_fresh tb dl ~now 3 : Ss.entry) );
      ("refresh_entry", fun () -> Ss.refresh_entry e dl ~now);
      ("force_stale", fun () -> Ss.force_stale e ~now);
    ]

let softstate_tests =
  [
    Alcotest.test_case "stale at t1, dead at t2, swept" `Quick test_expiry_ladder;
    Alcotest.test_case "refresh restarts both deadlines" `Quick
      test_refresh_restarts_deadlines;
    Alcotest.test_case "stale insert never downgrades t1" `Quick
      test_stale_insert_keeps_t1_expired;
    Alcotest.test_case "timed marks decay and gate data" `Quick
      test_timed_mark_decays;
    Alcotest.test_case "install-order projections" `Quick
      test_install_order_projections;
    Alcotest.test_case "copies share no deadline storage" `Quick
      test_copies_share_no_deadlines;
    Alcotest.test_case "deadline writes allocate nothing" `Quick
      test_updates_allocate_nothing;
  ]

(* ---- Table model ------------------------------------------------- *)

(* Random operation sequences on nodes 0..7 against an association-list
   model: after every operation each projection of the table equals
   the model's, and a copy taken along the way still equals the model
   as it was at the copy when the sequence ends. *)

type soft_op =
  | Fresh of int
  | Stale of int
  | Refresh of int
  | Mark of int
  | Remove of int
  | Expire
  | Clear
  | Copy

(* node, seq, marked_until, fresh_until, expires_at *)
type soft_model = {
  rows : (int * (int * float * float * float)) list;
  next : int;
}

let soft_op_gen =
  QCheck.Gen.(
    let node = int_range 0 7 in
    frequency
      [
        (4, map (fun n -> Fresh n) node);
        (2, map (fun n -> Stale n) node);
        (2, map (fun n -> Refresh n) node);
        (2, map (fun n -> Mark n) node);
        (2, map (fun n -> Remove n) node);
        (2, return Expire);
        (1, return Clear);
        (1, return Copy);
      ])

let soft_step m ~now op =
  let t1 = now +. dl.t1 and t2 = now +. dl.t2 in
  let row n = List.assoc_opt n m.rows in
  let set n r = { m with rows = (n, r) :: List.remove_assoc n m.rows } in
  let add n fresh_until =
    { rows = (n, (m.next, neg_infinity, fresh_until, t2)) :: m.rows;
      next = m.next + 1 }
  in
  match op with
  | Fresh n -> (
      match row n with Some (s, mk, _, _) -> set n (s, mk, t1, t2) | None -> add n t1)
  | Stale n -> (
      match row n with Some (s, mk, fr, _) -> set n (s, mk, fr, t2) | None -> add n now)
  | Refresh n -> (
      match row n with Some (s, mk, _, _) -> set n (s, mk, t1, t2) | None -> m)
  | Mark n -> (
      match row n with Some (s, _, fr, ex) -> set n (s, t1, fr, ex) | None -> m)
  | Remove n -> { m with rows = List.remove_assoc n m.rows }
  | Expire -> { m with rows = List.filter (fun (_, (_, _, _, ex)) -> now < ex) m.rows }
  | Clear -> { m with rows = [] }
  | Copy -> m

let soft_apply tb ~now = function
  | Fresh n -> ignore (Ss.Table.add_fresh tb dl ~now n)
  | Stale n -> ignore (Ss.Table.add_stale tb dl ~now n)
  | Refresh n -> ignore (Ss.Table.refresh tb dl ~now n)
  | Mark n -> ignore (Ss.Table.mark tb dl ~now n)
  | Remove n -> Ss.Table.remove tb n
  | Expire -> Ss.Table.expire tb ~now
  | Clear -> Ss.Table.clear tb
  | Copy -> ()

(* Every projection of [tb] at [now], and the model's version of it. *)
let soft_view tb ~now =
  let row (e : Ss.entry) =
    let tm = e.Ss.tm in
    (e.Ss.node, (e.Ss.seq, tm.Ss.marked_until, tm.Ss.fresh_until, tm.Ss.expires_at))
  in
  let nodes = List.init 9 Fun.id in
  ( (Ss.Table.size tb, Ss.Table.nodes tb, List.map row (Ss.Table.entries tb)),
    ( List.map (fun (e : Ss.entry) -> e.Ss.node) (in_order tb),
      Ss.Table.live_nodes tb ~now,
      Ss.Table.data_targets tb ~now,
      Ss.Table.fresh_targets tb ~now ),
    ( Ss.Table.first_fresh tb ~now,
      Ss.Table.all_dead tb ~now,
      List.map (Ss.Table.mem tb) nodes,
      List.map (Ss.Table.mem_live tb ~now) nodes,
      List.map (fun n -> Option.map row (Ss.Table.find tb n)) nodes ) )

let model_view m ~now =
  let rows = List.sort compare m.rows in
  let live = List.filter (fun (_, (_, _, _, ex)) -> now < ex) rows in
  let keys p = List.filter_map (fun (n, r) -> if p r then Some n else None) in
  let by_seq =
    List.sort (fun (_, (a, _, _, _)) (_, (b, _, _, _)) -> compare a b) rows
  in
  let fresh (_, _, fr, _) = now < fr in
  let nodes = List.init 9 Fun.id in
  ( (List.length rows, List.map fst rows, rows),
    ( List.map fst by_seq,
      List.map fst live,
      keys (fun (_, mk, _, _) -> now >= mk) live,
      keys fresh live ),
    ( List.find_map
        (fun (n, ((_, _, _, ex) as r)) -> if now < ex && fresh r then Some n else None)
        by_seq,
      live = [],
      List.map (fun n -> List.mem_assoc n rows) nodes,
      List.map (fun n -> List.mem_assoc n live) nodes,
      List.map
        (fun n -> Option.map (fun r -> (n, r)) (List.assoc_opt n rows))
        nodes ) )

let prop_softstate_model =
  QCheck.Test.make ~count:300 ~name:"softstate table matches its model"
    QCheck.(
      make Gen.(list_size (1 -- 40) (pair soft_op_gen (float_bound_inclusive 6.0))))
    (fun ops ->
      let tb = Ss.Table.create () in
      let copies = ref [] in
      let _, _, ok =
        List.fold_left
          (fun (now, m, ok) (op, dt) ->
            let now = now +. dt in
            soft_apply tb ~now op;
            let m = soft_step m ~now op in
            if op = Copy then copies := (Ss.Table.copy tb, m) :: !copies;
            (now, m, ok && soft_view tb ~now = model_view m ~now))
          (0.0, { rows = []; next = 0 }, true)
          ops
      in
      ok
      && List.for_all
           (fun (c, cm) ->
             List.for_all
               (fun now -> soft_view c ~now = model_view cm ~now)
               [ 0.0; 50.0; 100.0; 200.0 ])
           !copies)

(* Lookups on the per-hop and per-refresh paths allocate nothing:
   [mem] hits and misses, and a [find] miss. *)
let test_lookups_allocate_nothing () =
  let tb = Ss.Table.create () in
  List.iter
    (fun n -> ignore (Ss.Table.add_fresh tb dl ~now:0.0 n))
    [ 9; 2; 6; 4 ];
  let words f =
    let w0 = Gc.minor_words () in
    for n = 0 to 9_999 do
      ignore (Sys.opaque_identity (f (n land 15)))
    done;
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0)) "softstate mem" 0.0
    (words (fun n -> Ss.Table.mem tb n));
  Alcotest.(check (float 0.0)) "softstate find miss" 0.0
    (words (fun n -> Ss.Table.find tb (n + 16)))

let table_model_tests =
  Alcotest.test_case "lookups allocate nothing" `Quick
    test_lookups_allocate_nothing
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_softstate_model ]

(* ---- Channel multiplexer ----------------------------------------- *)

(* Multi-channel sessions on one shared mux: dispatch is keyed by
   channel, so traffic, membership and delivery never leak between
   channels — even when the channels share a member host (one
   refcounted sink underneath).  Every registry row rides the same
   mux, so each test runs for every protocol. *)

let mux_channel ~source c =
  Mcast.Channel.make ~source
    ~group:(Mcast.Class_d.of_int32 (Int32.of_int (0xE8000000 + c + 1)))

(* [k] sessions on one mux over a fresh ISP network, channel [c] at
   index [c]. *)
let mux_sessions (type s) (module P : Proto.Session.S with type t = s) k :
    s array =
  let graph = Topology.Isp.create () in
  let table = Routing.Table.compute graph in
  let engine = Engine.create () in
  let net = Netsim.Network.create engine table in
  let source = Topology.Isp.source in
  let mx = P.mux net in
  Array.init k (fun c ->
      P.create_mux ~channel:(mux_channel ~source c) mx ~source)

let for_each_protocol f () =
  List.iter
    (fun proto ->
      let module P = (val Verif.Sut.instance proto) in
      f (module P : Proto.Session.S) (Printf.sprintf "%s: " P.label))
    Verif.Sut.all

let test_mux_shared_sink_isolation =
  for_each_protocol (fun (module P) tag ->
      let s = mux_sessions (module P) 2 in
      let a = s.(0) and b = s.(1) in
      let shared = List.nth Topology.Isp.receiver_hosts 0 in
      let only_b = List.nth Topology.Isp.receiver_hosts 1 in
      P.subscribe a shared;
      P.subscribe b shared;
      P.subscribe b only_b;
      P.converge a;
      Alcotest.(check (list int)) (tag ^ "A's membership") [ shared ] (P.members a);
      Alcotest.(check (list int))
        (tag ^ "B's membership")
        (List.sort compare [ shared; only_b ])
        (P.members b);
      let da = P.probe a in
      let db = P.probe b in
      Alcotest.(check (list int))
        (tag ^ "A delivers to its member only")
        [ shared ]
        (Mcast.Distribution.receivers da);
      Alcotest.(check (list int))
        (tag ^ "B delivers to both")
        (List.sort compare [ shared; only_b ])
        (Mcast.Distribution.receivers db))

let test_mux_unsubscribe_keeps_sibling_sink =
  for_each_protocol (fun (module P) tag ->
      let s = mux_sessions (module P) 2 in
      let a = s.(0) and b = s.(1) in
      let shared = List.nth Topology.Isp.receiver_hosts 0 in
      P.subscribe a shared;
      P.subscribe b shared;
      P.converge a;
      P.unsubscribe a shared;
      (* Past every protocol's slowest deadline (HBH's t2 = 550): A's
         state for the leaver is gone everywhere. *)
      P.run_for a 1200.0;
      Alcotest.(check (list int)) (tag ^ "A empty") [] (P.members a);
      let da = P.probe a in
      Alcotest.(check (list int))
        (tag ^ "A delivers to nobody")
        []
        (Mcast.Distribution.receivers da);
      (* The refcounted sink must survive A's release: B still
         delivers. *)
      let db = P.probe b in
      Alcotest.(check (list int))
        (tag ^ "B still delivers to the shared host")
        [ shared ]
        (Mcast.Distribution.receivers db))

let test_mux_matches_solo_session =
  for_each_protocol (fun (module P) tag ->
      let members =
        List.filteri (fun i _ -> i < 5) Topology.Isp.receiver_hosts
      in
      let solo =
        let graph = Topology.Isp.create () in
        let table = Routing.Table.compute graph in
        P.create table ~source:Topology.Isp.source
      in
      List.iter (P.subscribe solo) members;
      P.converge solo;
      let d_solo = P.probe solo in
      let muxed = (mux_sessions (module P) 2).(0) in
      List.iter (P.subscribe muxed) members;
      P.converge muxed;
      let d_mux = P.probe muxed in
      Alcotest.(check bool)
        (tag ^ "same tree shape as a solo session")
        true
        (Mcast.Distribution.equal_shape d_solo d_mux))

let test_mux_deterministic_rebuild =
  for_each_protocol (fun (module P) tag ->
      let build () =
        let sessions = mux_sessions (module P) 4 in
        List.iteri
          (fun i h -> P.subscribe sessions.(i mod 4) h)
          Topology.Isp.receiver_hosts;
        P.converge sessions.(0);
        Array.map P.probe sessions
      in
      let r1 = build () and r2 = build () in
      Array.iteri
        (fun i d1 ->
          Alcotest.(check bool)
            (Printf.sprintf "%schannel %d rebuild-identical" tag i)
            true
            (Mcast.Distribution.equal_shape d1 r2.(i)))
        r1)

(* The mux is the network's one handler: a second one on the same
   network is refused instead of silently running a second
   dispatcher. *)
let test_mux_one_per_network =
  for_each_protocol (fun (module P) tag ->
      let table = Routing.Table.compute (Topology.Isp.create ()) in
      let net = Netsim.Network.create (Engine.create ()) table in
      ignore (P.mux net);
      Alcotest.check_raises (tag ^ "second mux refused")
        (Invalid_argument "Network.set_handler: a handler is already set")
        (fun () -> ignore (P.mux net)))

let mux_tests =
  [
    Alcotest.test_case "one mux per network" `Quick test_mux_one_per_network;
    Alcotest.test_case "shared member host, isolated channels" `Quick
      test_mux_shared_sink_isolation;
    Alcotest.test_case "unsubscribe keeps the sibling's sink" `Quick
      test_mux_unsubscribe_keeps_sibling_sink;
    Alcotest.test_case "muxed session matches solo session" `Quick
      test_mux_matches_solo_session;
    Alcotest.test_case "4-channel mux rebuilds identically" `Quick
      test_mux_deterministic_rebuild;
  ]

(* ---- Live state only ---------------------------------------------- *)

(* A per-node table exists only while it holds state.  Once every
   member has left, a channel's soft state decays everywhere, and with
   it every node table: the sweep, the state gauge and checkpoints then
   touch nothing. *)

type 's tables = {
  tag : string;
  node_entries : 's -> (int * int) list;
      (** Every listed node table with its entry count. *)
  period : float;  (** control period: one sweep each *)
  decay : float;
      (** Last leave to last entry death.  HBH and REUNITE: the
          source's entry for a leaver stays fresh for t1 after its last
          join and keeps sending trees that refresh the routers'
          entries, which then live t2 more.  PIM-SSM: the holdtime. *)
}

let hbh_tables =
  let c = Hbh.Protocol.default_config in
  {
    tag = "HBH";
    node_entries =
      (fun s ->
        List.map
          (fun (n, tb) ->
            (n, Hbh.Tables.mct_count tb + Hbh.Tables.mft_entry_count tb))
          (Hbh.Protocol.all_tables s));
    period = c.tree_period;
    decay = c.t1 +. c.t2;
  }

let reunite_tables =
  let c = Reunite.Protocol.default_config in
  {
    tag = "REUNITE";
    node_entries =
      (fun s ->
        List.map
          (fun (n, tb) ->
            (n, Reunite.Tables.mct_count tb + Reunite.Tables.mft_entry_count tb))
          (Reunite.Protocol.all_tables s));
    period = c.tree_period;
    decay = c.t1 +. c.t2;
  }

let pim_tables =
  let c = Pim.Ssm.default_config in
  {
    tag = "PIM-SSM";
    node_entries =
      (fun s ->
        List.map (fun (n, es) -> (n, List.length es)) (Pim.Ssm.all_oifs s));
    period = c.join_period;
    decay = c.holdtime;
  }

let isp_session (type s) (module P : Proto.Session.S with type t = s) =
  let table = Routing.Table.compute (Topology.Isp.create ()) in
  P.create table ~source:Topology.Isp.source

(* Three members per channel, on a solo ISP session and on a 4-channel
   mux: subscribe, converge, all leave, then wait out the decay plus
   two sweeps. *)
let drains (type s) (module P : Proto.Session.S with type t = s) tb () =
  let members c =
    List.filteri (fun i _ -> i >= c && i < c + 3) Topology.Isp.receiver_hosts
  in
  List.iter
    (fun (what, sessions) ->
      let tag = Printf.sprintf "%s %s: " tb.tag what in
      Array.iteri (fun c s -> List.iter (P.subscribe s) (members c)) sessions;
      P.converge sessions.(0);
      Alcotest.(check bool)
        (tag ^ "state built") true
        (P.state_size sessions.(0) > 0);
      Array.iteri (fun c s -> List.iter (P.unsubscribe s) (members c)) sessions;
      P.run_for sessions.(0) (tb.decay +. (2.0 *. tb.period));
      Array.iteri
        (fun c s ->
          let ch = Printf.sprintf "%schannel %d: " tag c in
          Alcotest.(check (list (pair int int)))
            (ch ^ "no node tables") [] (tb.node_entries s);
          Alcotest.(check int) (ch ^ "state_size") 0 (P.state_size s))
        sessions)
    [
      ("ISP", [| isp_session (module P) |]);
      ("4-channel mux", mux_sessions (module P) 4);
    ]

(* Random join/leave sequences on ISP: each listed node table holds at
   least one entry — after every sweep, and in between.  Membership
   changes land half a period off the sweeps; checks run four times a
   period, so joins crossing transit routers between two sweeps are
   seen too. *)
let prop_tables_hold_state (type s) (module P : Proto.Session.S with type t = s)
    tb =
  let hosts = Array.of_list Topology.Isp.receiver_hosts in
  let op =
    QCheck.(triple (int_range 0 (Array.length hosts - 1)) bool (int_range 1 3))
  in
  QCheck.Test.make ~count:50
    ~name:(tb.tag ^ ": listed node tables hold entries after each sweep")
    QCheck.(list_of_size Gen.(1 -- 12) op)
    (fun ops ->
      let s = isp_session (module P) in
      P.run_for s (0.5 *. tb.period);
      List.for_all
        (fun (h, join, periods) ->
          if join then P.subscribe s hosts.(h) else P.unsubscribe s hosts.(h);
          List.for_all
            (fun _ ->
              P.run_for s (0.25 *. tb.period);
              List.for_all (fun (_, k) -> k > 0) (tb.node_entries s))
            (List.init (4 * periods) Fun.id))
        ops)

let live_state_tests =
  [
    Alcotest.test_case "HBH tables drain after the last leave" `Quick
      (drains (module Hbh.Protocol) hbh_tables);
    Alcotest.test_case "REUNITE tables drain after the last leave" `Quick
      (drains (module Reunite.Protocol) reunite_tables);
    Alcotest.test_case "PIM-SSM tables drain after the last leave" `Quick
      (drains (module Pim.Ssm) pim_tables);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_tables_hold_state (module Hbh.Protocol) hbh_tables;
        prop_tables_hold_state (module Reunite.Protocol) reunite_tables;
        prop_tables_hold_state (module Pim.Ssm) pim_tables;
      ]

(* ---- The loop damper -------------------------------------------- *)

(* Every registry row on ISP with four members subscribed and
   converged.  [damped ()] reads the row's [proto.<name>.damped_data]
   counter: the copies the session's loop damper dropped so far. *)
let damper_sut proto =
  let module P = (val Sut.instance proto) in
  let table = Routing.Table.compute (Topology.Isp.create ()) in
  let sut =
    Sut.make ~candidates:Topology.Isp.receiver_hosts proto table
      ~source:Topology.Isp.source
  in
  List.iter sut.Sut.subscribe
    (List.filteri (fun i _ -> i < 4) Topology.Isp.receiver_hosts);
  sut.Sut.converge ();
  let c =
    Obs.Metrics.counter (Obs.Metrics.default ())
      (Printf.sprintf "proto.%s.damped_data" P.name)
  in
  (sut, fun () -> Obs.Metrics.value c)

let for_each_sut f () =
  List.iter
    (fun proto ->
      let sut, damped = damper_sut proto in
      f proto sut damped (Sut.label proto ^ ": "))
    Sut.all

let damped_by damped f =
  let before = damped () in
  let x = f () in
  (x, damped () - before)

let test_damper_clean_probe =
  for_each_sut (fun _ sut damped tag ->
      let deliveries, d = damped_by damped sut.Sut.probe in
      Alcotest.(check bool) (tag ^ "probe delivers") true (deliveries <> []);
      Alcotest.(check int) (tag ^ "nothing damped") 0 d)

(* The damper's table is part of the checkpoint: a replayed probe
   reuses the restored sequence number, so a damper kept live across
   the restore would drop the replay. *)
let test_damper_restored =
  for_each_sut (fun _ sut damped tag ->
      let restore = sut.Sut.save () in
      let (first, second), d =
        damped_by damped (fun () ->
            let first = sut.Sut.probe () in
            restore ();
            (first, sut.Sut.probe ()))
      in
      Alcotest.(check (list (pair int (float 1e-9))))
        (tag ^ "replay delivers the same") first second;
      Alcotest.(check int) (tag ^ "nothing damped") 0 d)

(* Network duplication hands each fan-out node a second copy of the
   sequence number: the damper drops it (and counts it) in HBH,
   PIM-SSM and HPIM-DM; REUNITE has no damper. *)
let test_damper_counts_duplicates =
  for_each_sut (fun proto sut damped tag ->
      sut.Sut.inject (Fault.Plan.Duplicate { prob = 1.0 });
      let _, d = damped_by damped sut.Sut.probe in
      if proto = Sut.Reunite then
        Alcotest.(check int) (tag ^ "no damper") 0 d
      else Alcotest.(check bool) (tag ^ "duplicates damped") true (d > 0))

let damper_tests =
  [
    Alcotest.test_case "a clean probe damps nothing" `Quick
      test_damper_clean_probe;
    Alcotest.test_case "restore rewinds the damper" `Quick test_damper_restored;
    Alcotest.test_case "network duplicates are damped and counted" `Quick
      test_damper_counts_duplicates;
  ]

(* ---- Seeded trace equivalence ------------------------------------ *)

let probe_until = 700.0
let horizon = 1000.0

(* The faults suite's seed-42 draw on [config]: a fresh session of
   [proto], the sorted receivers, and the suite's crash plan. *)
let crash_case proto (config : Common.config) ~n =
  let rng = Stats.Rng.create 42 in
  let s =
    Workload.Scenario.make rng config.graph ~source:config.source
      ~candidates:config.candidates ~n
  in
  let receivers = List.sort compare s.Workload.Scenario.receivers in
  let crash_node =
    Faults.pick_crash_router s.Workload.Scenario.table
      ~source:s.Workload.Scenario.source ~receivers
  in
  let link =
    Faults.pick_tree_link s.Workload.Scenario.table
      ~source:s.Workload.Scenario.source ~receivers
  in
  ( Faults.session proto config.graph ~source:s.Workload.Scenario.source,
    receivers,
    Faults.plan_of Faults.Crash ~crash_node ~link )

let fingerprint proto (config : Common.config) ~n =
  let sut, receivers, plan = crash_case proto config ~n in
  let buf = Buffer.create 4096 in
  sut.Sut.on_delivery (fun ~now ~receiver ~seq ->
      Buffer.add_string buf (Printf.sprintf "%.6f:%d:%d;" now receiver seq));
  List.iter sut.Sut.subscribe receivers;
  sut.Sut.converge ();
  let t0 = Engine.now sut.Sut.engine in
  ignore
    (Timer.every ~tag:"proto.test.probe" sut.Sut.engine ~start:0.0
       ~period:50.0 (fun () ->
         if Engine.now sut.Sut.engine -. t0 <= probe_until then
           ignore (sut.Sut.send_probe ())));
  sut.Sut.install_plan ~seed:42 plan;
  Engine.run ~until:(t0 +. horizon) sut.Sut.engine;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Delivery digests pinned from the pre-port protocol stacks.  The
   HBH and REUNITE digests were re-pinned when the route-epoch
   freshness guard landed (DESIGN.md §6b): the fingerprint script
   crashes and restarts a router, and post-reconvergence
   join-interception/capture now defers to the live tree instead of
   refreshing unvalidated entries.  PIM-SSM digests are untouched —
   its guard adoption is stamping only (joins are re-routed hop by
   hop, so join-installed state is always epoch-current). *)
let pinned =
  [
    ("HBH/isp", "5049f2068dfff60bf889a02ee4900b11");
    ("REUNITE/isp", "c23251c05b02f3949f12bcd5731b17e7");
    ("PIM-SSM/isp", "38bb2b3e8257dd584c05a587eba39fc2");
    ("HBH/rand50", "d69b5b5d563f1080f336e2f26a3044ab");
    ("REUNITE/rand50", "a5a9aae50128d3a40f323350acb44c36");
    ("PIM-SSM/rand50", "7438e27eea86080251f6f390e3377698");
    (* HPIM-DM digests pinned at introduction: the hard-state stack's
       crash-and-restart deliveries, frozen so later refactors of the
       reliable layer or the hello cycle cannot silently move a
       packet. *)
    ("HPIM-DM/isp", "fc4288c43bf2e4f85406fc195bbb1a9e");
    (* Equal to the PIM-SSM digest by construction, not by accident:
       on this topology both stacks forward along the same
       source-rooted shortest-path tree with no duplicate suppression
       needed, and the crash script repairs inside the same probe
       gap, so the delivered (time, receiver, seq) stream coincides
       packet for packet. *)
    ("HPIM-DM/rand50", "7438e27eea86080251f6f390e3377698");
  ]

let check_fingerprint proto config ~topo ~n () =
  let key = Printf.sprintf "%s/%s" (Sut.label proto) topo in
  let got = fingerprint proto config ~n in
  Alcotest.(check string) key (List.assoc key pinned) got

let equivalence_tests =
  let isp = Common.isp_config () in
  let rand50 = Common.rand50_config ~seed:42 in
  List.concat_map
    (fun proto ->
      List.map
        (fun (config, topo, n) ->
          Alcotest.test_case
            (Printf.sprintf "%s deliveries unchanged on %s" (Sut.label proto)
               topo)
            `Quick
            (check_fingerprint proto config ~topo ~n))
        [ (isp, "isp", 8); (rand50, "rand50", 15) ])
    Sut.all

(* ---- The event budget -------------------------------------------- *)

(* A budget small enough to cut the HBH crash case short: the cut
   must fall on the same event of the case whether or not a timeline
   sampler and a monitor ride along, since their timer events are not
   the case's.  A 1-unit sampler fires about as often as the case
   itself. *)
let test_budget_ignores_instrumentation () =
  let run ~observed =
    let sut, receivers, plan =
      crash_case Sut.Hbh (Common.isp_config ()) ~n:8
    in
    List.iter sut.Sut.subscribe receivers;
    sut.Sut.converge ();
    let timeline =
      if observed then
        Some
          ( 1.0,
            [
              ( "repaired",
                fun r -> float_of_int (Fault.Recovery.repaired_count r) );
            ] )
      else None
    in
    let monitor = if observed then Some (Verif.Monitor.attach sut) else None in
    let st =
      Faults.stream ?timeline ?monitor ~max_events:3000 ~fault_at:300.0 ~plan
        ~seed:42 ~horizon:1700.0 ~receivers sut
    in
    ( st.Faults.stopped,
      Fault.Recovery.sent_count st.Faults.recovery,
      st.Faults.report )
  in
  let stopped, sent, report = run ~observed:false in
  let stopped', sent', report' = run ~observed:true in
  Alcotest.(check bool) "the plain case hits the budget" true stopped;
  Alcotest.(check bool) "stopped alike" stopped stopped';
  Alcotest.(check int) "probes sent alike" sent sent';
  Alcotest.(check bool) "same recovery report" true
    (compare report report' = 0)

let () =
  Alcotest.run "proto"
    [
      ("softstate", softstate_tests);
      ("table model", table_model_tests);
      ("mux", mux_tests);
      ("live-state", live_state_tests);
      ("loop damper", damper_tests);
      ("trace-equivalence", equivalence_tests);
      ( "event budget",
        [
          Alcotest.test_case "instrumentation does not spend it" `Quick
            test_budget_ignores_instrumentation;
        ] );
    ]
