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

type jx = unit
type tx = Messages.tree_info
type extra = Proto.Messages.nothing
type msg = Messages.t

module Node_tables = Proto.Node_tables.Make (struct
  include Tables

  type t = channel_state
end)

type state = {
  deadlines : Ss.deadlines;
  router_tables : Node_tables.t;
  mutable source_mft : Tables.Mft.t option;
  mutable epoch : int;
}

module S = Proto.Session.Make (struct
  let name = "reunite"
  let label = "REUNITE"

  type nonrec config = config

  let default_config = default_config

  let validate c =
    if c.t1 <= 0.0 || c.t2 <= c.t1 then
      invalid_arg "Reunite.Protocol.create: need 0 < t1 < t2"

  let join_period c = c.join_period
  let control_period c = c.tree_period

  type msg = Messages.t

  let channel_of = Proto.Messages.channel
  let kind_of = Proto.Messages.kind
  let extra_counter = None

  let trace_event (m : msg) =
    match m with
    | Messages.Join { member; _ } ->
        Some (Obs.Event.Join { member; first = false })
    | Messages.Tree { target; _ } -> Some (Obs.Event.Tree { target })
    | Messages.Data _ -> None
    | Messages.Extra { extra = _; _ } -> .

  type nonrec state = state

  let create_state c =
    {
      deadlines = { Ss.t1 = c.t1; t2 = c.t2 };
      router_tables = Node_tables.create ();
      source_mft = None;
      epoch = 0;
    }

  let copy_state st =
    {
      deadlines = st.deadlines;
      router_tables = Node_tables.copy st.router_tables;
      source_mft = Option.map Tables.Mft.copy st.source_mft;
      epoch = st.epoch;
    }
end)

(* The session IS the public API surface; only [create]/[create_mux]
   (hooks baked in) and the protocol-specific inspectors below are
   redefined. *)
include S

let m_mft = S.counter "mft_updates"
let m_mct = S.counter "mct_updates"

let mft_ev t ~node ~target op =
  S.count t m_mft;
  if S.trace_active t then S.ev t ~node (Obs.Event.Mft_update { target; op })

let mct_ev t ~node ~target op =
  S.count t m_mct;
  if S.trace_active t then S.ev t ~node (Obs.Event.Mct_update { target; op })

(* The channel's state at [n], without installing any: only a transit
   tree installs state at a router that holds none. *)
let channel_state t n = Node_tables.find (S.state t).router_tables n

(* The data-plane fan-out: the source sends to its live dst entry and
   every receiver entry; a branching router copies the packets
   addressed to its dst to its receiver entries while the original
   continues. *)
let data_targets t n =
  if n = S.source t then
    match (S.state t).source_mft with
    | None -> []
    | Some mft ->
        let dst = Tables.Mft.dst mft in
        (if Ss.entry_dead dst ~now:(S.now t) then [] else [ dst.node ])
        @ Tables.Mft.receiver_nodes mft
  else
    match channel_state t n with
    | Some { Tables.mft = Some mft; _ } -> Tables.Mft.receiver_nodes mft
    | Some { Tables.mft = None; _ } | None -> []

(* ---- Router message processing --------------------------------------- *)

let router_handle_join_at t n (st : Tables.channel_state) ~member =
  let dl = (S.state t).deadlines in
  let nw = S.now t in
  let relays_member =
    match st.Tables.mct with
    | Some mct -> Ss.Table.mem_live mct ~now:nw member
    | None -> false
  in
  match st.Tables.mft with
  | Some mft ->
      if (Tables.Mft.dst mft).node = member then
        (* The dst receiver joined {e above} us: the join belongs to
           the upstream owner.  Crucially we do NOT refresh our dst
           entry here — dst entries are kept alive by tree messages
           only (Section 2.3), which is what makes a branch orphaned
           from the source collapse instead of capturing joins
           forever. *)
        Net.Forward
      else if Tables.Mft.mem mft member then
        if Ss.entry_stale (Tables.Mft.dst mft) ~now:nw then Net.Forward
        else begin
          (* Freshness guard (DESIGN.md §6b): only refresh a receiver
             entry the current route epoch has validated — the last
             tree fork reached it since the last reconvergence that
             changed paths.  A post-reroute leftover must not be kept
             alive by the joins it captures; the join passes upstream
             and the member re-anchors on the live tree. *)
          match Tables.Mft.find_receiver mft member with
          | Some e when e.Ss.epoch >= S.route_epoch t ->
              ignore (Tables.Mft.refresh mft dl ~now:nw member);
              mft_ev t ~node:n ~target:member Obs.Event.Refresh;
              Net.Consume
          | _ -> Net.Forward
        end
      else if relays_member then
        (* The member's flow transits this branching node unforked; it
           is served elsewhere and its join passes. *)
        Net.Forward
      else if Ss.entry_stale (Tables.Mft.dst mft) ~now:nw then
        (* A stale table no longer captures joins — they flow through
           toward the source (Figure 2(c)). *)
        Net.Forward
      else begin
        S.notef t ~node:n "capture join(%d) at branching node" member;
        Tables.Mft.add_receiver mft dl ~now:nw member;
        (* Born under the routing that delivered this join. *)
        Option.iter
          (fun e -> Ss.stamp e ~epoch:(S.route_epoch t))
          (Tables.Mft.find_receiver mft member);
        mft_ev t ~node:n ~target:member Obs.Event.Add;
        Net.Consume
      end
  | None -> (
      if relays_member then Net.Forward
      else
        match st.Tables.mct with
        | None -> Net.Forward
        | Some mct -> (
            match Ss.Table.first_fresh mct ~now:nw with
            | None -> Net.Forward
            | Some dst ->
                (* Control router becomes a branching node: its oldest
                   relayed receiver moves from the MCT into the MFT as
                   dst, the joiner becomes the first receiver entry,
                   the other control entries stay. *)
                S.notef t ~node:n
                  "capture join(%d): becoming branching (dst=%d)" member dst;
                let mft = Tables.Mft.create dl ~now:nw ~dst in
                let epoch = S.route_epoch t in
                Ss.stamp (Tables.Mft.dst mft) ~epoch;
                Tables.Mft.add_receiver mft dl ~now:nw member;
                Option.iter
                  (fun e -> Ss.stamp e ~epoch)
                  (Tables.Mft.find_receiver mft member);
                mft_ev t ~node:n ~target:dst Obs.Event.Add;
                mft_ev t ~node:n ~target:member Obs.Event.Add;
                mct_ev t ~node:n ~target:dst Obs.Event.Remove;
                Ss.Table.remove mct dst;
                if Ss.Table.all_dead mct ~now:nw then st.Tables.mct <- None;
                st.Tables.mft <- Some mft;
                Net.Consume))

(* A router holding no state for the channel neither captures nor
   relays the join. *)
let router_handle_join t n ~member =
  match channel_state t n with
  | Some st -> router_handle_join_at t n st ~member
  | None -> Net.Forward

(* Tree and data share the forking geometry: a packet addressed to a
   branching router's dst is replicated to its receiver entries while
   the original continues. *)
let router_handle_tree t n (p : Messages.t Pkt.t) ~target ~marked ~epoch =
  let dl = (S.state t).deadlines in
  let nw = S.now t in
  let found = channel_state t n in
  match found with
  | Some { Tables.mft = Some mft; _ }
    when (Tables.Mft.dst mft).node = target ->
      if marked then begin
        Tables.Mft.stale_dst mft ~now:nw;
        mft_ev t ~node:n ~target Obs.Event.Mark
      end
      else if Tables.Mft.should_fork mft ~epoch then begin
        (* A genuinely new epoch from the source: learn the upstream
           interface, refresh the dst entry and fork the tree to every
           receiver entry.  Replayed or looping epochs neither refresh
           nor fork, so orphaned branching structures decay. *)
        Tables.Mft.set_upstream mft p.Pkt.via;
        ignore (Tables.Mft.refresh mft dl ~now:nw target);
        (* The source's tree reached this fork point over the current
           unicast paths: forward-path evidence for the dst entry and
           every receiver entry the fork serves (DESIGN.md §6b). *)
        let repoch = S.route_epoch t in
        Ss.stamp (Tables.Mft.dst mft) ~epoch:repoch;
        List.iter
          (fun (e : Ss.entry) ->
            Ss.stamp e ~epoch:repoch;
            S.send t ~from:n ~dst:e.node ~kind:Pkt.Control
              (Messages.Tree
                 {
                   channel = S.channel t;
                   target = e.node;
                   ext =
                     {
                       Messages.marked = Ss.entry_stale e ~now:nw;
                       epoch;
                     };
                 }))
          (Tables.Mft.receivers mft)
      end;
      Net.Forward
  | _ ->
      (* Transit flow: maintain the control entry for it (even at
         branching nodes), unless the MFT already records the target. *)
      let in_mft =
        match found with
        | Some { Tables.mft = Some mft; _ } -> Tables.Mft.mem mft target
        | Some { Tables.mft = None; _ } | None -> false
      in
      if marked then begin
        (* Teardown: "destroys any r1 MCT entries". *)
        match found with
        | Some ({ Tables.mct = Some mct; _ } as st) ->
            Ss.Table.remove mct target;
            mct_ev t ~node:n ~target Obs.Event.Remove;
            if Ss.Table.all_dead mct ~now:nw then begin
              st.Tables.mct <- None;
              (* The teardown emptied the record between sweeps. *)
              if st.Tables.mft = None then
                Node_tables.release (S.state t).router_tables n
            end
        | Some { Tables.mct = None; _ } | None -> ()
      end
      else if not in_mft then begin
        let mct =
          match found with
          | Some { Tables.mct = Some mct; _ } -> mct
          | Some st ->
              let mct = Ss.Table.create () in
              st.Tables.mct <- Some mct;
              mct
          | None ->
              let mct = Ss.Table.create () in
              Node_tables.set (S.state t).router_tables n
                { Tables.mct = Some mct; mft = None };
              mct
        in
        ignore (Ss.Table.add_fresh mct dl ~now:nw target);
        mct_ev t ~node:n ~target Obs.Event.Add
      end;
      Net.Forward

(* No loop damper here, unlike the other three stacks: REUNITE's
   forwarding cycles must stay visible (a runaway under faults, not a
   count of suppressed copies) until an oracle bounds them. *)
let router_handle_data t n (p : Messages.t Pkt.t) =
  match channel_state t n with
  | Some { Tables.mft = Some mft; _ }
    when (Tables.Mft.dst mft).node = p.Pkt.dst
         && Tables.Mft.from_upstream mft ~via:p.Pkt.via ->
      List.iter
        (fun d ->
          S.meter t ~from:n p.Pkt.payload;
          Net.emit (S.network t) ~at:n (Pkt.rewrite p ~src:n ~dst:d ()))
        (data_targets t n);
      Net.Forward
  | Some _ | None -> Net.Forward

let router_handler t n (p : Messages.t Pkt.t) =
  match p.Pkt.payload with
  | Messages.Join { member; _ } -> router_handle_join t n ~member
  | Messages.Tree { target; ext = { Messages.marked; epoch }; _ } ->
      router_handle_tree t n p ~target ~marked ~epoch
  | Messages.Data _ -> router_handle_data t n p
  | Messages.Extra { extra = _; _ } -> .

(* ---- Source agent ----------------------------------------------------- *)

let source_handler t n (p : Messages.t Pkt.t) =
  if p.Pkt.dst <> n then Net.Forward
  else begin
    let st = S.state t in
    (match p.Pkt.payload with
    | Messages.Join { member; _ } ->
        if member <> S.source t then (
          (* A join that reached the source travelled the current
             unicast paths end to end — forward-path evidence. *)
          let epoch = S.route_epoch t in
          let stamp_member mft =
            if (Tables.Mft.dst mft).Ss.node = member then
              Ss.stamp (Tables.Mft.dst mft) ~epoch
            else
              Option.iter
                (fun e -> Ss.stamp e ~epoch)
                (Tables.Mft.find_receiver mft member)
          in
          match st.source_mft with
          | None ->
              let mft =
                Tables.Mft.create st.deadlines ~now:(S.now t) ~dst:member
              in
              stamp_member mft;
              st.source_mft <- Some mft;
              mft_ev t ~node:n ~target:member Obs.Event.Add
          | Some mft ->
              if Tables.Mft.refresh mft st.deadlines ~now:(S.now t) member then
                mft_ev t ~node:n ~target:member Obs.Event.Refresh
              else begin
                Tables.Mft.add_receiver mft st.deadlines ~now:(S.now t) member;
                mft_ev t ~node:n ~target:member Obs.Event.Add
              end;
              stamp_member mft)
    | Messages.Tree _ | Messages.Data _ -> ()
    | Messages.Extra { extra = _; _ } -> .);
    Net.Consume
  end

(* ---- Session hooks ----------------------------------------------------- *)

let source_tick t =
  let st = S.state t in
  match st.source_mft with
  | None -> ()
  | Some mft ->
      let nw = S.now t in
      Tables.Mft.expire mft ~now:nw;
      ignore (Tables.Mft.promote mft ~now:nw);
      if Tables.Mft.dead mft ~now:nw then st.source_mft <- None
      else begin
        st.epoch <- st.epoch + 1;
        let tree (e : Ss.entry) =
          Messages.Tree
            {
              channel = S.channel t;
              target = e.node;
              ext =
                {
                  Messages.marked = Ss.entry_stale e ~now:nw;
                  epoch = st.epoch;
                };
            }
        in
        let dst = Tables.Mft.dst mft in
        S.send t ~from:(S.source t) ~dst:dst.node ~kind:Pkt.Control (tree dst);
        List.iter
          (fun (e : Ss.entry) ->
            S.send t ~from:(S.source t) ~dst:e.node ~kind:Pkt.Control (tree e))
          (Tables.Mft.receivers mft)
      end

let hooks =
  {
    S.router = router_handler;
    source_agent = source_handler;
    member_agent = None;
    tick = Some source_tick;
    sweep = (fun t ~now -> Node_tables.sweep (S.state t).router_tables ~now);
    state_size =
      (fun t ->
        let st = S.state t in
        Hashtbl.fold
          (fun _ cs acc ->
            acc + Tables.mct_count cs + Tables.mft_entry_count cs)
          st.router_tables
          (match st.source_mft with
          | Some mft -> Tables.Mft.size mft
          | None -> 0));
    crash_wipe =
      (fun t n ->
        let st = S.state t in
        if n = S.source t then st.source_mft <- None
        else Hashtbl.remove st.router_tables n);
    join_tick =
      (fun t ~member ->
        S.send t ~from:member ~dst:(S.source t) ~kind:Pkt.Control
          (Messages.Join { channel = S.channel t; member; ext = () }));
    on_subscribe = (fun _ _ -> ());
    on_unsubscribe = (fun _ _ -> ());
    send_data =
      (fun t ->
        match (S.state t).source_mft with
        | None -> ()
        | Some mft ->
            let payload =
              Messages.Data { channel = S.channel t; seq = S.next_seq t }
            in
            Tables.Mft.expire mft ~now:(S.now t);
            List.iter
              (fun d ->
                S.send t ~from:(S.source t) ~dst:d ~kind:Pkt.Data payload)
              (data_targets t (S.source t)));
    data_targets;
  }

(* ---- Public API -------------------------------------------------------- *)

let create ?config ?trace ?channel table ~source =
  S.create ?config ?trace ?channel hooks table ~source

let create_mux ?config ?channel mx ~source =
  S.create_mux ?config ?channel hooks mx ~source

let source_table t = (S.state t).source_mft

let all_tables t = Node_tables.to_list (S.state t).router_tables
