module Net = Netsim.Network
module Pkt = Netsim.Packet
module Ss = Proto.Softstate

type ('jx, 'tx, 'extra) gen = ('jx, 'tx, 'extra) Proto.Messages.t =
  | Join of { channel : Mcast.Channel.t; member : int; ext : 'jx }
  | Tree of { channel : Mcast.Channel.t; target : int; ext : 'tx }
  | Data of { channel : Mcast.Channel.t; seq : int }
  | Extra of { channel : Mcast.Channel.t; extra : 'extra }

type jx = unit
type tx = Proto.Messages.nothing
type extra = Proto.Messages.nothing
type msg = (jx, tx, extra) gen
type config = { join_period : float; holdtime : float }

let default_config = { join_period = 100.0; holdtime = 350.0 }

let scale_timers k c =
  { join_period = c.join_period *. k; holdtime = c.holdtime *. k }

module Node_tables = Proto.Node_tables.Make (struct
  type t = Ss.Table.t

  let sweep tbl ~now =
    Ss.Table.expire tbl ~now;
    if Ss.Table.is_empty tbl then None else Some tbl

  let copy = Ss.Table.copy
end)

type state = {
  (* PIM's degenerate deadline ladder: an oif entry is live exactly
     until its holdtime lapses, with no separate stale phase. *)
  dl : Ss.deadlines;
  (* (S,G) state: per node, the downstream neighbors joins arrived
     from, each with its holdtime deadline. *)
  oifs : Node_tables.t;
}

module S = Proto.Session.Make (struct
  let name = "pim_ssm"
  let label = "PIM-SSM"

  type nonrec config = config

  let default_config = default_config

  let validate c =
    if c.join_period <= 0.0 || c.holdtime <= c.join_period then
      invalid_arg "Pim.Ssm.create: need 0 < join_period < holdtime"

  let join_period c = c.join_period
  let control_period c = c.join_period

  type nonrec msg = msg

  let channel_of = Proto.Messages.channel
  let kind_of = Proto.Messages.kind
  let extra_counter = None

  let trace_event (m : msg) =
    match m with
    | Join { member; _ } -> Some (Obs.Event.Join { member; first = false })
    | Data _ -> None
    | Tree { ext = _; _ } -> .
    | Extra { extra = _; _ } -> .

  type nonrec state = state

  let create_state c =
    {
      dl = { Ss.t1 = c.holdtime; t2 = c.holdtime };
      oifs = Node_tables.create ();
    }

  let copy_state st = { dl = st.dl; oifs = Node_tables.copy st.oifs }
end)

(* The session IS the public API surface; only [create]/[create_mux]
   (hooks baked in) and the oif inspectors below are redefined. *)
include S

let m_oif = S.counter "oif_updates"

let live_oifs t n =
  match Node_tables.find (S.state t).oifs n with
  | None -> []
  | Some tbl -> Ss.Table.live_nodes tbl ~now:(S.now t)

(* The upstream (RPF) neighbor of [n] for the channel's source;
   [None] at the source itself or when partitioned away from it. *)
let rpf_neighbor t n =
  if n = S.source t then None
  else Routing.Table.next_hop (Net.table (S.network t)) n ~dest:(S.source t)

let send_join t ~from =
  match rpf_neighbor t from with
  | None -> ()
  | Some up ->
      S.send t ~from ~dst:up ~kind:Pkt.Control
        (Join { channel = S.channel t; member = from; ext = () })

(* One handler for routers, the source and member hosts alike.  Joins
   are intercepted at {e every} router hop (real PIM processes a join
   on each interface it crosses): the router records the previous hop
   as an oif and sends its own join RPF-upstream, so oif entries
   always point at physical neighbors.  Data fans out along the
   recorded oifs, each copy unicast-addressed to its neighbor. *)
let handler t n (p : msg Pkt.t) =
  match p.Pkt.payload with
  | Join _
    when p.Pkt.dst = n || Topology.Graph.multicast_capable (S.graph t) n ->
      if p.Pkt.via <> n then begin
        let oifs = (S.state t).oifs in
        let tbl =
          match Node_tables.find oifs n with
          | Some tbl -> tbl
          | None ->
              let tbl = Ss.Table.create () in
              Node_tables.set oifs n tbl;
              tbl
        in
        let fresh = not (Ss.Table.mem tbl p.Pkt.via) in
        (* Freshness-guard adoption (DESIGN.md §6b) is stamping only:
           a PIM join is re-routed hop by hop on the *current* RPF
           paths, so the join that installs or refreshes an oif is
           itself forward-path evidence — stale-epoch state simply
           stops being refreshed and dies at holdtime, with nothing
           to gate. *)
        Ss.stamp
          (Ss.Table.add_fresh tbl (S.state t).dl ~now:(S.now t) p.Pkt.via)
          ~epoch:(S.route_epoch t);
        S.count t m_oif;
        if fresh && S.trace_active t then
          S.ev t ~node:n
            (Obs.Event.Mft_update { target = p.Pkt.via; op = Obs.Event.Add })
      end;
      (* Propagate hop by hop toward the source (join suppression is
         deliberately not modelled: every refresh travels the whole
         reverse path, PIM's periodic-join overhead). *)
      if n <> S.source t then send_join t ~from:n;
      Net.Consume
  | Data { seq; _ } when p.Pkt.dst = n ->
      (* Copies are unicast-addressed to oif neighbors and may arrive
         through an asymmetric path, so neither an interface RPF check
         nor an incoming-interface exclusion is expressible (the
         exclusion would starve a subtree reached through an oif
         neighbor).  The session's damper stops bounce-backs instead.
         It fires: 26 copies over [faults --seed 42], none in the
         fault-free churn of DESIGN.md §6b. *)
      S.forward_data t ~at:n p ~seq;
      Net.Consume
  | Join _ | Data _ -> Net.Forward
  | Tree { ext = _; _ } -> .
  | Extra { extra = _; _ } -> .

let hooks =
  {
    S.router = handler;
    source_agent = handler;
    member_agent = Some handler;
    tick = None;
    (* Holdtime sweep: drop expired oif entries, and nodes left without
       any, so state size reflects the live tree. *)
    sweep = (fun t ~now -> Node_tables.sweep (S.state t).oifs ~now);
    state_size =
      (fun t ->
        Hashtbl.fold
          (fun _ tbl acc -> acc + Ss.Table.size tbl)
          (S.state t).oifs 0);
    (* A crash drops the node's (S,G) state; the periodic joins rebuild
       it through RPF re-join once the node (or a route around it) is
       back. *)
    crash_wipe =
      (fun t n -> Hashtbl.remove (S.state t).oifs n);
    join_tick = (fun t ~member -> send_join t ~from:member);
    on_subscribe = (fun _ _ -> ());
    on_unsubscribe = (fun _ _ -> ());
    send_data =
      (fun t ->
        let payload = Data { channel = S.channel t; seq = S.next_seq t } in
        List.iter
          (fun d -> S.send t ~from:(S.source t) ~dst:d ~kind:Pkt.Data payload)
          (live_oifs t (S.source t)));
    data_targets = live_oifs;
  }

let create ?config ?trace ?channel table ~source =
  S.create ?config ?trace ?channel hooks table ~source

let create_mux ?config ?channel mx ~source =
  S.create_mux ?config ?channel hooks mx ~source

let all_oifs t =
  List.map
    (fun (n, tbl) -> (n, Ss.Table.entries tbl))
    (Node_tables.to_list (S.state t).oifs)
