module Net = Netsim.Network
module Pkt = Netsim.Packet
module Ss = Proto.Softstate

type config = {
  join_period : float;
  tree_period : float;
  t1 : float;
  t2 : float;
}

let default_config =
  { join_period = 100.0; tree_period = 100.0; t1 = 250.0; t2 = 550.0 }

let scale_timers k c =
  {
    join_period = c.join_period *. k;
    tree_period = c.tree_period *. k;
    t1 = c.t1 *. k;
    t2 = c.t2 *. k;
  }

type jx = bool
type tx = int
type extra = Messages.fusion
type msg = Messages.t

module Node_tables = Proto.Node_tables.Make (struct
  include Tables

  type t = channel_state
end)

(* A time updated in place.  Its only field is a float, so OCaml
   stores the record flat and an update is a plain store; a [float ref]
   or a [(int, float) Hashtbl.t] value would box a new float per
   update. *)
type instant = { mutable at : float }

type state = {
  deadlines : Ss.deadlines;
  router_tables : Node_tables.t;
  source_mft : Ss.Table.t;
  member_first : (int, bool ref) Hashtbl.t;
  (* The tree damper, the control-plane twin of the session's data
     damper ([S.forward_data]).  The MFT entry graph can hold a cycle
     (a restarted router re-learns a peer that still holds a stale
     entry pointing back); without a guard each lap of such a cycle
     would regenerate tree messages and the exchange grows
     exponentially.  Both dampers are counted
     ([proto.hbh.damped_tree], [proto.hbh.damped_data]) because they
     fire even without faults: 269 trees and 244 data copies over
     [faults --seed 42], 125 trees and 15 data copies in the
     fault-free churn of DESIGN.md §6b. *)
  tree_emit_at : (int, instant) Hashtbl.t;  (* router -> last rule-1 emit *)
}

module S = Proto.Session.Make (struct
  let name = "hbh"
  let label = "HBH"

  type nonrec config = config

  let default_config = default_config

  let validate c =
    if c.t1 <= 0.0 || c.t2 <= c.t1 then
      invalid_arg "Protocol.create: need 0 < t1 < t2"

  let join_period c = c.join_period
  let control_period c = c.tree_period

  type msg = Messages.t

  let channel_of = Proto.Messages.channel
  let kind_of = Proto.Messages.kind
  let extra_counter = Some "fusion_msgs"

  let trace_event = function
    | Messages.Join { member; ext = first; _ } ->
        Some (Obs.Event.Join { member; first })
    | Messages.Tree { target; _ } -> Some (Obs.Event.Tree { target })
    | Messages.Extra { extra = { Messages.members; _ }; _ } ->
        Some (Obs.Event.Fusion { members })
    | Messages.Data _ -> None

  type nonrec state = state

  let create_state c =
    {
      deadlines = { Ss.t1 = c.t1; t2 = c.t2 };
      router_tables = Node_tables.create ();
      source_mft = Ss.Table.create ();
      member_first = Hashtbl.create 16;
      tree_emit_at = Hashtbl.create 16;
    }

  let copy_tbl copy_v src =
    let c = Hashtbl.create (max 8 (Hashtbl.length src)) in
    Hashtbl.iter (fun k v -> Hashtbl.replace c k (copy_v v)) src;
    c

  let copy_state st =
    {
      deadlines = st.deadlines;
      router_tables = Node_tables.copy st.router_tables;
      source_mft = Ss.Table.copy st.source_mft;
      member_first = copy_tbl (fun r -> ref !r) st.member_first;
      tree_emit_at = copy_tbl (fun c -> { at = c.at }) st.tree_emit_at;
    }
end)

(* The session IS the public API surface; only [create]/[create_mux]
   (hooks baked in) and the protocol-specific inspectors below are
   redefined. *)
include S

let m_mft = S.counter "mft_updates"
let m_mct = S.counter "mct_updates"
let m_damped_tree = S.counter "damped_tree"

let mft_ev t ~node ~target op =
  S.count t m_mft;
  if S.trace_active t then S.ev t ~node (Obs.Event.Mft_update { target; op })

let mct_ev t ~node ~target op =
  S.count t m_mct;
  if S.trace_active t then S.ev t ~node (Obs.Event.Mct_update { target; op })

(* ---- Appendix A: router message processing -------------------------- *)

(* The channel's state at [n], without installing any: only rules 4
   and 8 install state, each with a non-empty table. *)
let channel_state t n =
  match Node_tables.find (S.state t).router_tables n with
  | Some state -> state
  | None -> Tables.No_state

let install t n state = Node_tables.set (S.state t).router_tables n state

let emit_trees t ~at mft =
  List.iter
    (fun x ->
      S.send t ~from:at ~dst:x ~kind:Pkt.Control
        (Messages.Tree { channel = S.channel t; target = x; ext = at }))
    (Ss.Table.fresh_targets mft ~now:(S.now t))

let send_fusion t ~at ~to_branch mft =
  if to_branch <> at then
    S.send t ~from:at ~dst:to_branch ~kind:Pkt.Control
      (Messages.Extra
         {
           channel = S.channel t;
           extra = { members = Ss.Table.nodes mft; sender = at };
         })

(* Re-stamp a tree message as owned by [at] and push it on toward its
   target (Appendix A tree rules 2-3 and 8). *)
let restamp_tree t ~at (p : Messages.t Pkt.t) ~target =
  let payload = Messages.Tree { channel = S.channel t; target; ext = at } in
  S.meter t ~from:at payload;
  Net.emit (S.network t) ~at (Pkt.rewrite p ~src:at ~dst:target ~payload ())

let router_handle_join t n (p : Messages.t Pkt.t) ~member ~first =
  if first then Net.Forward
  else begin
    let st = S.state t in
    match channel_state t n with
    | Tables.Forwarding mft when Ss.Table.mem mft member -> (
        (* Rule 3: intercept, refresh, join upstream on own behalf —
           but only when the entry carries forward-path evidence from
           the current route epoch (DESIGN.md §6b).  After a
           reconvergence the tree may have moved off this router while
           the entry lingers as soft state; refreshing it from
           intercepted joins would keep a zombie branch alive forever
           (the mutual-capture pathology).  Letting the join pass
           upstream instead re-anchors the member on the live tree,
           and the unvalidated entry decays at its own t1/t2. *)
        match Ss.Table.find mft member with
        | Some e when e.Ss.epoch >= S.route_epoch t ->
            ignore (Ss.Table.refresh mft st.deadlines ~now:(S.now t) member);
            mft_ev t ~node:n ~target:member Obs.Event.Refresh;
            S.notef t ~node:n "intercept join(%d), send join(%d)" member n;
            S.send t ~from:n ~dst:p.Pkt.dst ~kind:Pkt.Control
              (Messages.Join { channel = S.channel t; member = n; ext = false });
            Net.Consume
        | _ ->
            S.notef t ~node:n "join(%d) bypasses stale-epoch entry" member;
            Net.Forward)
    | Tables.Forwarding _ | Tables.Control _ | Tables.No_state -> Net.Forward
  end

let router_handle_tree t n (p : Messages.t Pkt.t) ~target ~from_branch =
  let st = S.state t in
  let now = S.now t in
  match channel_state t n with
  | Tables.Forwarding mft ->
      if p.Pkt.dst = n then begin
        (* Rule 1: the tree message was for us; regenerate one per
           non-stale entry — at most once per half tree period, so a
           cyclic entry graph cannot amplify.  The upstream owner
           sends us one tree per period; every suppressed extra one
           is counted (see [tree_emit_at]). *)
        let last =
          match Hashtbl.find st.tree_emit_at n with
          | c -> c
          | exception Not_found ->
              let c = { at = neg_infinity } in
              Hashtbl.add st.tree_emit_at n c;
              c
        in
        if now -. last.at >= 0.5 *. (S.config t).tree_period then begin
          last.at <- now;
          emit_trees t ~at:n mft
        end
        else S.count t m_damped_tree;
        Net.Consume
      end
      else begin
        (* Rules 2-3: a receiver's tree converges on us; adopt or
           refresh the entry, tell the upstream owner to mark it, and
           push the tree on under our own stamp.  A converging tree is
           proof the current unicast routing runs through us — stamp
           the entry with the present route epoch so join
           interception keeps trusting it (DESIGN.md §6b). *)
        let epoch = S.route_epoch t in
        if Ss.Table.mem mft target then begin
          ignore (Ss.Table.refresh mft st.deadlines ~now target);
          mft_ev t ~node:n ~target Obs.Event.Refresh
        end
        else begin
          ignore (Ss.Table.add_fresh mft st.deadlines ~now target);
          mft_ev t ~node:n ~target Obs.Event.Add
        end;
        Option.iter (fun e -> Ss.stamp e ~epoch) (Ss.Table.find mft target);
        send_fusion t ~at:n ~to_branch:from_branch mft;
        restamp_tree t ~at:n p ~target;
        Net.Consume
      end
  | Tables.Control mct ->
      if p.Pkt.dst = n then Net.Consume
      else if mct.Ss.node = target then begin
        (* Rule 6. *)
        Ss.refresh_entry mct st.deadlines ~now;
        mct_ev t ~node:n ~target Obs.Event.Refresh;
        Net.Forward
      end
      else if Ss.entry_stale mct ~now then begin
        (* Rule 7: stale control entry superseded by the live flow. *)
        install t n (Tables.Control (Ss.entry st.deadlines ~now target));
        mct_ev t ~node:n ~target Obs.Event.Add;
        Net.Forward
      end
      else begin
        (* Rule 8: second receiver relayed through us - become a
           branching node and fuse upstream.  Both entries are born
           out of trees flowing through us right now — stamp them
           with the current route epoch. *)
        let epoch = S.route_epoch t in
        let mft = Ss.Table.create () in
        Ss.stamp (Ss.Table.add_fresh mft st.deadlines ~now mct.Ss.node) ~epoch;
        Ss.stamp (Ss.Table.add_fresh mft st.deadlines ~now target) ~epoch;
        mft_ev t ~node:n ~target:mct.Ss.node Obs.Event.Add;
        mft_ev t ~node:n ~target Obs.Event.Add;
        install t n (Tables.Forwarding mft);
        send_fusion t ~at:n ~to_branch:from_branch mft;
        restamp_tree t ~at:n p ~target;
        Net.Consume
      end
  | Tables.No_state ->
      if p.Pkt.dst = n then Net.Consume
      else begin
        (* Rule 4: first sight of this channel. *)
        install t n (Tables.Control (Ss.entry st.deadlines ~now target));
        mct_ev t ~node:n ~target Obs.Event.Add;
        Net.Forward
      end

let router_handle_fusion t n (p : Messages.t Pkt.t) ~members ~sender =
  if p.Pkt.dst <> n then Net.Forward
  else begin
    let st = S.state t in
    (match channel_state t n with
    | Tables.Forwarding mft ->
        List.iter
          (fun m ->
            ignore (Ss.Table.mark mft st.deadlines ~now:(S.now t) m);
            mft_ev t ~node:n ~target:m Obs.Event.Mark)
          members;
        if sender <> n then begin
          ignore (Ss.Table.add_stale mft st.deadlines ~now:(S.now t) sender);
          mft_ev t ~node:n ~target:sender Obs.Event.Add
        end
    | Tables.Control _ | Tables.No_state ->
        (* Fusion for state we no longer hold: drop; soft state heals. *)
        ());
    Net.Consume
  end

(* Only a branching router fans data out, so only it records the
   sequence number in the session's damper. *)
let router_handle_data t n (p : Messages.t Pkt.t) ~seq =
  if p.Pkt.dst <> n then Net.Forward
  else begin
    (match channel_state t n with
    | Tables.Forwarding _ -> S.forward_data t ~at:n p ~seq
    | Tables.Control _ | Tables.No_state -> ());
    Net.Consume
  end

let router_handler t n (p : Messages.t Pkt.t) =
  match p.Pkt.payload with
  | Messages.Join { member; ext = first; _ } ->
      router_handle_join t n p ~member ~first
  | Messages.Tree { target; ext = from_branch; _ } ->
      router_handle_tree t n p ~target ~from_branch
  | Messages.Extra { extra = { Messages.members; sender }; _ } ->
      router_handle_fusion t n p ~members ~sender
  | Messages.Data { seq; _ } -> router_handle_data t n p ~seq

(* ---- Source agent ---------------------------------------------------- *)

let source_handler t n (p : Messages.t Pkt.t) =
  if p.Pkt.dst <> n then Net.Forward
  else begin
    let st = S.state t in
    (match p.Pkt.payload with
    | Messages.Join { member; _ } ->
        if member <> S.source t then begin
          (* A join that reached the source travelled the current
             unicast paths end to end — forward-path evidence. *)
          Ss.stamp
            (Ss.Table.add_fresh st.source_mft st.deadlines ~now:(S.now t)
               member)
            ~epoch:(S.route_epoch t);
          mft_ev t ~node:n ~target:member Obs.Event.Add
        end
    | Messages.Extra { extra = { Messages.members; sender }; _ } ->
        List.iter
          (fun m ->
            ignore (Ss.Table.mark st.source_mft st.deadlines ~now:(S.now t) m))
          members;
        if sender <> S.source t then
          ignore
            (Ss.Table.add_stale st.source_mft st.deadlines ~now:(S.now t)
               sender)
    | Messages.Tree _ | Messages.Data _ -> ());
    Net.Consume
  end

(* ---- Session hooks --------------------------------------------------- *)

(* The data-plane fan-out: the source's and each branching router's
   unmarked live MFT entries. *)
let data_targets t n =
  let now = S.now t in
  if n = S.source t then Ss.Table.data_targets (S.state t).source_mft ~now
  else
    match channel_state t n with
    | Tables.Forwarding mft -> Ss.Table.data_targets mft ~now
    | Tables.Control _ | Tables.No_state -> []

(* Source tree cycle. *)
let tick t =
  let st = S.state t in
  Ss.Table.expire st.source_mft ~now:(S.now t);
  List.iter
    (fun x ->
      S.send t ~from:(S.source t) ~dst:x ~kind:Pkt.Control
        (Messages.Tree { channel = S.channel t; target = x; ext = S.source t }))
    (Ss.Table.fresh_targets st.source_mft ~now:(S.now t))

(* A member's first join after subscribing is flagged [first], which
   no router intercepts, so it reaches the source; later ones are
   refreshes. *)
let join_tick t ~member =
  match Hashtbl.find (S.state t).member_first member with
  | first ->
      let f = !first in
      first := false;
      S.send t ~from:member ~dst:(S.source t) ~kind:Pkt.Control
        (Messages.Join { channel = S.channel t; member; ext = f })
  | exception Not_found -> ()

let hooks =
  {
    S.router = router_handler;
    source_agent = source_handler;
    member_agent = None;
    tick = Some tick;
    sweep = (fun t ~now -> Node_tables.sweep (S.state t).router_tables ~now);
    state_size =
      (fun t ->
        let st = S.state t in
        Hashtbl.fold
          (fun _ cs acc ->
            acc + Tables.mct_count cs + Tables.mft_entry_count cs)
          st.router_tables
          (Ss.Table.size st.source_mft));
    crash_wipe =
      (fun t n ->
        let st = S.state t in
        if n = S.source t then Ss.Table.clear st.source_mft
        else Hashtbl.remove st.router_tables n;
        Hashtbl.remove st.tree_emit_at n);
    join_tick;
    on_subscribe =
      (fun t r -> Hashtbl.replace (S.state t).member_first r (ref true));
    on_unsubscribe = (fun t r -> Hashtbl.remove (S.state t).member_first r);
    send_data =
      (fun t ->
        let payload =
          Messages.Data { channel = S.channel t; seq = S.next_seq t }
        in
        Ss.Table.expire (S.state t).source_mft ~now:(S.now t);
        List.iter
          (fun x -> S.send t ~from:(S.source t) ~dst:x ~kind:Pkt.Data payload)
          (data_targets t (S.source t)));
    data_targets;
  }

(* ---- Public API ------------------------------------------------------- *)

let create ?config ?trace ?channel table ~source =
  S.create ?config ?trace ?channel hooks table ~source

let create_mux ?config ?channel mx ~source =
  S.create_mux ?config ?channel hooks mx ~source

let source_table t = (S.state t).source_mft

let all_tables t = Node_tables.to_list (S.state t).router_tables
