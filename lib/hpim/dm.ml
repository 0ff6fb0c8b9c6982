(* HPIM-DM (Oliveira/Silva/Valadas, arXiv 2002.06635), adapted to the
   runtime's point-to-point message model: the hard-state design
   opposite of HBH's soft state.

   Where the soft-state stacks refresh their tables every period and
   let lost messages heal by decay, this instance keeps {e hard}
   interest state, each node's set of interested downstream neighbors,
   that changes only on explicit events, and makes those events stick
   with sequence-numbered reliable control messages (Proto.Reliable):

   - Interest/NoInterest (the Join class) travel one hop to the
     RPF parent and are retransmitted with bounded backoff until
     acked — a member's join is sent once, not every join period.
   - Hellos carry a generation ID, a root-path-cost metric and a
     per-sender sequence number; a neighbor is alive while its last
     hello is within the holdtime.  A changed generation ID means the
     neighbor restarted: its hard state is void, pending messages to
     it are cancelled, and a reliable Sync re-synchronizes both the
     metric and the sender's interest through that neighbor.
   - Assert-winner election per (link, channel): a router forwards
     data to a downstream {e router} only if it wins the link's
     election — lexicographic (metric, id), my live root path cost
     against the neighbor's hello-advertised one — so two routers
     sharing a link never both feed it.

   Data forwarding mirrors PIM-SSM's shape (copies unicast-addressed
   to downstream entries, through the session's loop damper), with
   two hard-state twists: targets are pruned by current unicast
   reachability (the hard entry survives an outage and resumes
   instantly on heal, instead of decaying and being re-built), and
   router targets must pass the assert election.  That rule is the
   [data_targets] hook, so the verifier's assert-loser oracle checks
   the very function the data plane forwards with. *)

module Net = Netsim.Network
module Pkt = Netsim.Packet
module Iset = Set.Make (Int)
module Rel = Proto.Reliable
module Tbl = Proto.Node_tables.Int_tbl

type ('jx, 'tx, 'extra) gen = ('jx, 'tx, 'extra) Proto.Messages.t =
  | Join of { channel : Mcast.Channel.t; member : int; ext : 'jx }
  | Tree of { channel : Mcast.Channel.t; target : int; ext : 'tx }
  | Data of { channel : Mcast.Channel.t; seq : int }
  | Extra of { channel : Mcast.Channel.t; extra : 'extra }

type join_ext = {
  j_sn : int;
  j_int : bool;  (* true: Interest, false: NoInterest *)
  j_genid : int;  (* sender's generation ID, resets the dedup window *)
}

type ack_ext = { a_sn : int; a_cls : int }

type xtra =
  | Hello of { h_genid : int; h_metric : int; h_seq : int }
  | Sync of { s_sn : int; s_genid : int; s_metric : int; s_int : bool }

type jx = join_ext
type tx = ack_ext
type extra = xtra
type msg = (jx, tx, extra) gen

type config = {
  hello_period : float;
  holdtime : float;  (* a neighbor is dead this long after its last hello *)
  rto : float;  (* initial reliable-retransmission timeout *)
  rto_max : float;  (* backoff cap *)
  join_period : float;  (* the members' audit period (posts only on change) *)
}

let default_config =
  {
    hello_period = 100.0;
    holdtime = 350.0;
    rto = 30.0;
    rto_max = 120.0;
    join_period = 100.0;
  }

let scale_timers k c =
  {
    hello_period = c.hello_period *. k;
    holdtime = c.holdtime *. k;
    rto = c.rto *. k;
    rto_max = c.rto_max *. k;
    join_period = c.join_period *. k;
  }

(* Reliable message classes. *)
let cls_join = 0
let cls_sync = 1

let metric_unknown = max_int

(* What one node knows about a neighbor, from its hellos and syncs. *)
type nbr = {
  mutable n_genid : int;
  mutable n_metric : int;  (* advertised root path cost *)
  mutable n_heard : float;  (* absolute liveness deadline *)
  mutable n_hseq : int;  (* highest hello sequence seen *)
}

(* Reliable-receive dedup window per peer: a sequence number is fresh
   only above [p_sn]; a changed generation ID resets the window (the
   peer restarted and restarted counting). *)
type peer = { mutable p_genid : int; mutable p_sn : int }

type node_state = {
  ns_genid : int;  (* this incarnation's generation ID *)
  mutable ns_hseq : int;  (* outgoing hello sequence *)
  mutable ns_out : int;  (* outgoing reliable sequence *)
  mutable ns_member : bool;  (* this node is a subscribed member host *)
  nbrs : nbr Tbl.t;
  peers : peer Tbl.t;
  mutable down : Iset.t;  (* downstream interested: routers + member hosts *)
  mutable up_state : (int * bool * int) option;
      (* (parent, polarity, parent genid) of the last tracked
         upstream Interest/NoInterest post — the audit's "already
         expressed" witness *)
}

(* Per-node state is dense by node id: [nodes.(n)] holds node [n]'s
   state while it has any.  The array is empty until the first install
   sizes it to the graph; the sweep visits every id each period anyway,
   and every walk over it is a copy, a sum or an ascending view. *)
type state = {
  mutable nodes : node_state option array;
  mutable genid_ctr : int;
  rel : msg Rel.t;
  mutable pump : Eventsim.Wheel.entry option;
      (* the retransmission pump: armed while [rel] has pending
         slots, stopped when it drains.  Lives in the state so
         checkpoint/restore (which reassigns the whole state record)
         stays consistent with the wheel's own save/restore. *)
}

module S = Proto.Session.Make (struct
  let name = "hpim-dm"
  let label = "HPIM-DM"

  type nonrec config = config

  let default_config = default_config

  let validate c =
    if c.hello_period <= 0.0 || c.holdtime <= c.hello_period then
      invalid_arg "Hpim.Dm.create: need 0 < hello_period < holdtime";
    if c.rto <= 0.0 || c.rto_max < c.rto then
      invalid_arg "Hpim.Dm.create: need 0 < rto <= rto_max";
    if c.join_period <= 0.0 then
      invalid_arg "Hpim.Dm.create: need join_period > 0"

  let join_period c = c.join_period
  let control_period c = c.hello_period

  type nonrec msg = msg

  let channel_of = Proto.Messages.channel
  let kind_of = Proto.Messages.kind
  let extra_counter = Some "hello_msgs"

  let trace_event (m : msg) =
    match m with
    | Join { member; ext = { j_int; _ }; _ } ->
        Some (Obs.Event.Join { member; first = j_int })
    | Tree _ | Data _ | Extra _ -> None

  type nonrec state = state

  let create_state c =
    {
      nodes = [||];
      genid_ctr = 0;
      rel = Rel.create ~rto:c.rto ~rto_max:c.rto_max ();
      pump = None;
    }

  let copy_node ns =
    let nbrs = Tbl.create (max 8 (Tbl.length ns.nbrs)) in
    Tbl.iter
      (fun v (r : nbr) -> Tbl.replace nbrs v { r with n_genid = r.n_genid })
      ns.nbrs;
    let peers = Tbl.create (max 8 (Tbl.length ns.peers)) in
    Tbl.iter
      (fun v (p : peer) -> Tbl.replace peers v { p with p_genid = p.p_genid })
      ns.peers;
    { ns with nbrs; peers }

  let copy_state st =
    {
      nodes = Array.map (Option.map copy_node) st.nodes;
      genid_ctr = st.genid_ctr;
      rel = Rel.copy st.rel;
      (* The wheel-entry handle is shared deliberately: Wheel.restore
         resurrects exactly the entries alive at save time, and this
         copy is only ever installed by a restore to that instant. *)
      pump = st.pump;
    }
end)

include S

let m_down = S.counter "down_updates"
let m_rtx = S.counter "retransmissions"
let m_syncs = S.counter "neighbor_syncs"

let find_state st n = if n < Array.length st.nodes then st.nodes.(n) else None

let node_state t n =
  let st = S.state t in
  match find_state st n with
  | Some ns -> ns
  | None ->
      st.genid_ctr <- st.genid_ctr + 1;
      let ns =
        {
          ns_genid = st.genid_ctr;
          ns_hseq = 0;
          ns_out = 0;
          ns_member = false;
          nbrs = Tbl.create 8;
          peers = Tbl.create 8;
          down = Iset.empty;
          up_state = None;
        }
      in
      if Array.length st.nodes = 0 then
        st.nodes <- Array.make (Topology.Graph.node_count (S.graph t)) None;
      st.nodes.(n) <- Some ns;
      ns

let peer_of ns v =
  match Tbl.find_opt ns.peers v with
  | Some p -> p
  | None ->
      let p = { p_genid = 0; p_sn = 0 } in
      Tbl.replace ns.peers v p;
      p

let nbr_genid ns v =
  match Tbl.find_opt ns.nbrs v with Some r -> r.n_genid | None -> 0

let nbr_alive ns v ~now =
  match Tbl.find_opt ns.nbrs v with
  | Some r -> now <= r.n_heard
  | None -> false

(* A protocol participant: a multicast router, or the source (which
   runs the source agent even from a host attachment).  Hosts and
   capability-disabled routers run no router agent (see
   [Proto.Session]) — helloing them would stream messages into a
   void, and worse, make the liveness view permanently one-sided. *)
let is_router t n =
  Topology.Graph.multicast_router (S.graph t) n || n = S.source t

(* Everything routing says about this node's upstream is in one
   in-tree: unicast toward the channel source.  Its next hops are the
   path, and [Dijkstra.dist tree n] is the root path cost, the
   assert-election metric ([max_int] = [metric_unknown] when the
   source is unreachable).

   The RPF candidate is the first {e participating} hop on that path,
   or [-1] when there is none.  Under full deployment this is exactly
   [Dijkstra.next tree n]; a capability-disabled router in between is
   tunneled through (the handler forwards packets not addressed to
   it). *)
let rpf_of t (tree : Routing.Dijkstra.in_tree) n =
  let src = S.source t in
  let rec walk v =
    if v < 0 || v = src || is_router t v then v
    else walk (Routing.Dijkstra.next tree v)
  in
  walk (Routing.Dijkstra.next tree n)

(* The best {e alive} upstream alternative: among adjacent
   participating neighbors with a live record and a finite advertised
   metric, the lexicographic minimum of (metric + link cost, id).  Ids
   are unique, so the minimum does not depend on the fold's order. *)
let best_alive_upstream t n ns ~now =
  let g = S.graph t in
  Tbl.fold
    (fun v (r : nbr) best ->
      if
        is_router t v && now <= r.n_heard
        && r.n_metric < metric_unknown
        && Topology.Graph.connected g n v
      then
        let m = r.n_metric + Topology.Graph.cost g n v in
        match best with
        | Some (bm, bv) when bm < m || (bm = m && bv <= v) -> best
        | Some _ | None -> Some (m, v)
      else best)
    ns.nbrs None

(* Upstream selection, and the advertised root-path cost it implies,
   from one read of the source's in-tree per decision (no memo: a
   cached tree is an array read, and there is nothing to invalidate
   on reconvergence or restore).

   The RPF candidate wins whenever it is not {e known} dead — a
   missing record is bootstrap, not death, and so is a lapsed record
   of a tunnelled candidate (one past a capability-disabled next hop):
   such a parent never hellos this node, so a record left from when
   it was adjacent can never refresh.  When hellos have declared
   it dead yet unicast routing still points through it (a crashed
   router whose links came back up), the protocol does what HPIM-DM
   routers do: re-parent onto the best alive neighbor by advertised
   (metric, id), without waiting for routing to agree.  A node in
   that degraded mode advertises its fallback cost (neighbor metric
   plus link) rather than routing's figure, so every fallback parent
   edge strictly decreases the advertised metric — parent chains
   cannot cycle at a quiescent point. *)
let upstream_info t n ns =
  let src = S.source t in
  if n = src then (None, 0)
  else begin
    let now = S.now t in
    let tree = Routing.Table.in_tree (Net.table (S.network t)) src in
    let rpf = rpf_of t tree n in
    let degraded =
      rpf < 0
      ||
      match Tbl.find_opt ns.nbrs rpf with
      | Some r -> now > r.n_heard && rpf = Routing.Dijkstra.next tree n
      | None -> false
    in
    (* With no live alternative the RPF parent stays anyway.  The
       reliable layer retransmits the pending interest with backoff
       until the hop revives (crashed routers restart with a fresh
       generation ID and re-synchronize) — exactly how single-homed
       members survive their attachment router's crash. *)
    match if degraded then best_alive_upstream t n ns ~now else None with
    | Some (m, v) -> (Some v, m)
    | None ->
        ((if rpf < 0 then None else Some rpf), Routing.Dijkstra.dist tree n)
  end

let parent_of t n ns = fst (upstream_info t n ns)

(* The metric this node advertises in hellos, syncs and asserts. *)
let metric_of t n ns = snd (upstream_info t n ns)

let wants ns = ns.ns_member || not (Iset.is_empty ns.down)

(* ---- The retransmission pump ------------------------------------------- *)

(* One dynamically-armed wheel entry per session: armed when the
   reliable table gains its first pending slot, stopped when it
   drains.  The closure re-reads [S.state t] at every fire, so a
   checkpoint restore (which swaps the whole state record) is
   transparent to it. *)
let rec ensure_pump t =
  let st = S.state t in
  match st.pump with
  | Some e when Eventsim.Wheel.active e -> ()
  | Some _ | None ->
      let period = Rel.rto st.rel in
      st.pump <-
        Some
          (Eventsim.Wheel.every (S.wheel t) ~start:period ~period (fun () ->
               pump_fire t))

and pump_fire t =
  let st = S.state t in
  Rel.due_iter st.rel ~now:(S.now t) (fun s ->
      S.count t m_rtx;
      S.send t ~from:s.Rel.s_from ~dst:s.Rel.s_dst ~kind:Pkt.Control
        s.Rel.s_payload);
  if Rel.pending st.rel = 0 then begin
    (match st.pump with Some e -> Eventsim.Wheel.stop e | None -> ());
    st.pump <- None
  end

let next_sn ns =
  ns.ns_out <- ns.ns_out + 1;
  ns.ns_out

let send_ack t n ~dst ~cls ~sn =
  S.send t ~from:n ~dst ~kind:Pkt.Control
    (Tree { channel = S.channel t; target = n; ext = { a_sn = sn; a_cls = cls } })

(* ---- Upstream interest (the audit) ------------------------------------- *)

let post_join t n ns ~dst ~j_int ~track =
  let st = S.state t in
  let sn = next_sn ns in
  let payload =
    Join
      {
        channel = S.channel t;
        member = n;
        ext = { j_sn = sn; j_int; j_genid = ns.ns_genid };
      }
  in
  Rel.post st.rel ~now:(S.now t) ~from:n ~dst ~cls:cls_join ~sn payload;
  S.send t ~from:n ~dst ~kind:Pkt.Control payload;
  ensure_pump t;
  if track then ns.up_state <- Some (dst, j_int, nbr_genid ns dst)

(* A retraction goes to an old parent that is alive, or that is not
   adjacent: a parent reached through a capability-disabled router
   never sends this node a hello, so it has no liveness record, and
   gating on one would leave this node in its downstream table for
   good. *)
let can_retract t n ns p' ~now =
  nbr_alive ns p' ~now || not (Topology.Graph.connected (S.graph t) n p')

(* Reconcile what this node has expressed upstream with what it now
   wants: post only on change (parent moved, polarity flipped, or the
   parent restarted with a new generation ID).  Idempotent and cheap —
   the steady state posts nothing. *)
let audit t n ns =
  let now = S.now t in
  let want = wants ns in
  let parent = parent_of t n ns in
  match parent with
  | Some p when want ->
      let g = nbr_genid ns p in
      let expressed =
        match ns.up_state with
        | Some (p', true, g') -> p' = p && g' = g
        | Some (_, false, _) | None -> false
      in
      if not expressed then begin
        (match ns.up_state with
        | Some (p', true, _) when p' <> p && can_retract t n ns p' ~now ->
            (* Retract from the abandoned parent; untracked — the
               reliable slot outlives the bookkeeping. *)
            post_join t n ns ~dst:p' ~j_int:false ~track:false
        | Some _ | None -> ());
        post_join t n ns ~dst:p ~j_int:true ~track:true
      end
  | Some _ | None -> (
      match ns.up_state with
      | Some (p', true, _) ->
          if can_retract t n ns p' ~now then
            post_join t n ns ~dst:p' ~j_int:false ~track:true
          else ns.up_state <- None
      | Some (_, false, _) | None -> ())

(* ---- Neighbor liveness and synchronization ----------------------------- *)

let send_sync t n ns ~dst =
  let st = S.state t in
  let sn = next_sn ns in
  let s_int = wants ns && parent_of t n ns = Some dst in
  let payload =
    Extra
      {
        channel = S.channel t;
        extra =
          Sync
            {
              s_sn = sn;
              s_genid = ns.ns_genid;
              s_metric = metric_of t n ns;
              s_int;
            };
      }
  in
  Rel.post st.rel ~now:(S.now t) ~from:n ~dst ~cls:cls_sync ~sn payload;
  S.send t ~from:n ~dst ~kind:Pkt.Control payload;
  S.count t m_syncs;
  ensure_pump t;
  if s_int then ns.up_state <- Some (dst, true, nbr_genid ns dst)

(* The neighbor restarted: its hard state about us is gone and our
   records of it are void.  Reset, then re-synchronize reliably. *)
let neighbor_restarted t n ns ~v ~genid ~metric ~now =
  let st = S.state t in
  Rel.cancel_between st.rel ~from:n ~dst:v;
  if Iset.mem v ns.down then begin
    ns.down <- Iset.remove v ns.down;
    S.count t m_down
  end;
  (match Tbl.find_opt ns.nbrs v with
  | Some r ->
      r.n_genid <- genid;
      r.n_metric <- metric;
      r.n_heard <- now +. (S.config t).holdtime
  | None ->
      Tbl.replace ns.nbrs v
        {
          n_genid = genid;
          n_metric = metric;
          n_heard = now +. (S.config t).holdtime;
          n_hseq = 0;
        });
  send_sync t n ns ~dst:v;
  audit t n ns

let process_hello t n ~v ~genid ~metric ~hseq =
  let ns = node_state t n in
  let now = S.now t in
  match Tbl.find_opt ns.nbrs v with
  | None ->
      Tbl.replace ns.nbrs v
        {
          n_genid = genid;
          n_metric = metric;
          n_heard = now +. (S.config t).holdtime;
          n_hseq = hseq;
        };
      (* Fresh contact — at startup, or after this node expired [v]
         and threw its hard state away (a loss burst can starve the
         hello stream without any restart).  Synchronize reliably:
         the Sync carries this node's interest through [v], and its
         arrival tells [v] to re-audit its own upstream expression
         (see [process_sync]) — the event-driven replacement for the
         refresh a soft-state protocol would lean on here.  Only
         participants speak: a member host syncing here would plant a
         neighbor record of itself at the router, and since hosts
         never hello, that record would expire and take the host's
         hard interest entry with it, forever. *)
      if is_router t n then send_sync t n ns ~dst:v;
      audit t n ns
  | Some r ->
      (* The hseq monotonicity guard only orders hellos within one
         incarnation: a different genid or a lapsed (dead) record means
         the counter restarted, so the comparison is meaningless. *)
      let revived = now > r.n_heard in
      if hseq > r.n_hseq || genid <> r.n_genid || revived then begin
        r.n_hseq <- hseq;
        r.n_heard <- now +. (S.config t).holdtime;
        if r.n_genid <> genid then
          neighbor_restarted t n ns ~v ~genid ~metric ~now
        else begin
          r.n_metric <- metric;
          (* The record was past its deadline — this node may already
             have released [v]'s interest and re-parented away.  Same
             genid means no restart, so nothing implicitly voids the
             divergence: re-synchronize reliably, like fresh contact. *)
          if revived && is_router t n then send_sync t n ns ~dst:v;
          audit t n ns
        end
      end

(* Release neighbors whose holdtime lapsed: their hard state is void
   (downstream interest included) and pending messages to them are
   cancelled — the implicit-clearing half of the reliable design.
   The record itself is kept, marked dead by its lapsed deadline:
   known-dead must stay distinguishable from never-seen, because the
   upstream selection routes {e around} known-dead RPF candidates but
   must keep trusting routing about neighbors it has no word on.
   Every action here is idempotent, so re-walking dead records on
   later sweeps is harmless. *)
let expire_neighbors t n ns ~now =
  if Tbl.fold (fun _ (r : nbr) any -> any || now > r.n_heard) ns.nbrs false
  then begin
    let st = S.state t in
    let dead =
      Tbl.fold
        (fun v (r : nbr) acc -> if now > r.n_heard then v :: acc else acc)
        ns.nbrs []
      |> List.sort compare
    in
    List.iter
      (fun v ->
        Rel.cancel_between st.rel ~from:n ~dst:v;
        if Iset.mem v ns.down then begin
          ns.down <- Iset.remove v ns.down;
          S.count t m_down
        end;
        match ns.up_state with
        | Some (p, _, _) when p = v -> ns.up_state <- None
        | Some _ | None -> ())
      dead
  end

let send_hellos t n ns =
  let g = S.graph t in
  let net = S.network t in
  ns.ns_hseq <- ns.ns_hseq + 1;
  let metric = metric_of t n ns in
  let payload =
    Extra
      {
        channel = S.channel t;
        extra =
          Hello { h_genid = ns.ns_genid; h_metric = metric; h_seq = ns.ns_hseq };
      }
  in
  (* A member host behind a disabled router is no neighbor of its
     parent: the hello reaches it by unicast, as its interest reached
     the parent. *)
  let hello v =
    if
      ((not (Topology.Graph.connected g n v)) || Topology.Graph.link_up g n v)
      && Net.node_up net v
    then S.send t ~from:n ~dst:v ~kind:Pkt.Control payload
  in
  (* Router/source neighbors in ascending order (the graph keeps its
     adjacency sorted), then downstream member hosts (they need the
     parent's generation ID to know when to re-express interest;
     non-member hosts are never helloed). *)
  List.iter
    (fun (v, _) -> if is_router t v then hello v)
    (Topology.Graph.adjacency g n);
  List.iter
    (fun v -> if not (is_router t v) then hello v)
    (Iset.elements ns.down)

(* ---- Data plane --------------------------------------------------------- *)

(* A downstream target receives a copy iff (1) unicast can reach it
   right now — the hard entry survives an outage, forwarding resumes
   on heal — and (2) for router targets, this node wins the link's
   assert election: lexicographic (metric, id), my advertised root
   path cost against the neighbor's.  Unknown or dead neighbors are
   no competition — forward. *)
let entitled t n ns d =
  Routing.Table.reachable (Net.table (S.network t)) n d
  && (if is_router t d then
        match Tbl.find_opt ns.nbrs d with
        | Some r when S.now t <= r.n_heard ->
            let m = metric_of t n ns in
            m < r.n_metric || (m = r.n_metric && n < d)
        | Some _ | None -> true
      else true)

let data_targets t n =
  match find_state (S.state t) n with
  | None -> []
  | Some ns -> List.filter (entitled t n ns) (Iset.elements ns.down)

(* ---- Receive processing ------------------------------------------------- *)

let fresh_reliable ns ~v ~genid ~sn =
  let pr = peer_of ns v in
  if pr.p_genid <> genid then begin
    pr.p_genid <- genid;
    pr.p_sn <- 0
  end;
  if sn > pr.p_sn then begin
    pr.p_sn <- sn;
    true
  end
  else false

let process_interest t n ~v ~sn ~j_int ~genid =
  let ns = node_state t n in
  send_ack t n ~dst:v ~cls:cls_join ~sn;
  if fresh_reliable ns ~v ~genid ~sn then begin
    ns.down <- (if j_int then Iset.add else Iset.remove) v ns.down;
    S.count t m_down;
    audit t n ns
  end

let process_sync t n ~v ~sn ~genid ~metric ~s_int =
  let ns = node_state t n in
  let now = S.now t in
  send_ack t n ~dst:v ~cls:cls_sync ~sn;
  if fresh_reliable ns ~v ~genid ~sn then begin
    (match Tbl.find_opt ns.nbrs v with
    | Some r ->
        if r.n_genid <> genid then begin
          (* Restart detected through the sync itself (it raced ahead
             of the hello): void our pendings toward the fresh peer.
             No counter-sync — the peer is fresh, our audit below
             re-expresses everything it needs. *)
          Rel.cancel_between (S.state t).rel ~from:n ~dst:v;
          r.n_genid <- genid
        end;
        r.n_metric <- metric;
        r.n_heard <- now +. (S.config t).holdtime
    | None ->
        Tbl.replace ns.nbrs v
          {
            n_genid = genid;
            n_metric = metric;
            n_heard = now +. (S.config t).holdtime;
            n_hseq = 0;
          });
    ns.down <- (if s_int then Iset.add else Iset.remove) v ns.down;
    S.count t m_down;
    (* A Sync from the RPF parent means the parent (re)initialized its
       view of this node — whatever interest was expressed before may
       be gone from its table.  Void the witness so the audit below
       re-posts it reliably. *)
    if parent_of t n ns = Some v then ns.up_state <- None;
    audit t n ns
  end

let handler t n (p : msg Pkt.t) =
  match p.Pkt.payload with
  | Join { ext = { j_sn; j_int; j_genid }; _ } when p.Pkt.dst = n ->
      process_interest t n ~v:p.Pkt.src ~sn:j_sn ~j_int ~genid:j_genid;
      Net.Consume
  | Tree { ext = { a_sn; a_cls }; _ } when p.Pkt.dst = n ->
      let st = S.state t in
      Rel.ack st.rel ~from:n ~dst:p.Pkt.src ~cls:a_cls ~sn:a_sn;
      Net.Consume
  | Extra { extra = Hello { h_genid; h_metric; h_seq }; _ } when p.Pkt.dst = n
    ->
      process_hello t n ~v:p.Pkt.src ~genid:h_genid ~metric:h_metric
        ~hseq:h_seq;
      Net.Consume
  | Extra { extra = Sync { s_sn; s_genid; s_metric; s_int }; _ }
    when p.Pkt.dst = n ->
      process_sync t n ~v:p.Pkt.src ~sn:s_sn ~genid:s_genid ~metric:s_metric
        ~s_int;
      Net.Consume
  | Data { seq; _ } when p.Pkt.dst = n ->
      (* The session's damper fires: 103 copies over [faults --seed
         42], none in the fault-free churn of DESIGN.md §6b. *)
      S.forward_data t ~at:n p ~seq;
      Net.Consume
  | Join _ | Tree _ | Data _ | Extra _ -> Net.Forward

(* ---- Session hooks ------------------------------------------------------ *)

let sweep t ~now =
  let g = S.graph t in
  let net = S.network t in
  let st = S.state t in
  for n = 0 to Topology.Graph.node_count g - 1 do
    if Net.node_up net n then
      if is_router t n then begin
        (* Every up router (and the source) runs the hello cycle:
           expire dead neighbors, advertise liveness + metric, then
           reconcile upstream interest against current routing. *)
        let ns = node_state t n in
        expire_neighbors t n ns ~now;
        send_hellos t n ns;
        audit t n ns
      end
      else
        match find_state st n with
        | None -> ()
        | Some ns ->
            expire_neighbors t n ns ~now;
            audit t n ns
  done

let hooks =
  {
    S.router = handler;
    source_agent = handler;
    member_agent = Some handler;
    tick = None;
    sweep;
    state_size =
      (fun t ->
        Array.fold_left
          (fun acc -> function
            | Some ns -> acc + Iset.cardinal ns.down | None -> acc)
          0 (S.state t).nodes);
    (* A crash voids the incarnation: tables, dedup windows and the
       node's own pending reliable slots all go; the restart draws a
       fresh generation ID lazily, and the neighbors' hello machinery
       re-synchronizes from it. *)
    crash_wipe =
      (fun t n ->
        let st = S.state t in
        if n < Array.length st.nodes then st.nodes.(n) <- None;
        Rel.drop_node st.rel n);
    join_tick =
      (fun t ~member ->
        let ns = node_state t member in
        ns.ns_member <- true;
        expire_neighbors t member ns ~now:(S.now t);
        audit t member ns);
    on_subscribe =
      (fun t m ->
        let ns = node_state t m in
        ns.ns_member <- true;
        audit t m ns);
    on_unsubscribe =
      (fun t m ->
        match find_state (S.state t) m with
        | None -> ()
        | Some ns ->
            ns.ns_member <- false;
            audit t m ns);
    send_data =
      (fun t ->
        let src = S.source t in
        let payload = Data { channel = S.channel t; seq = S.next_seq t } in
        List.iter
          (fun d -> S.send t ~from:src ~dst:d ~kind:Pkt.Data payload)
          (data_targets t src));
    data_targets;
  }

let create ?config ?trace ?channel table ~source =
  S.create ?config ?trace ?channel hooks table ~source

let create_mux ?config ?channel mx ~source =
  S.create_mux ?config ?channel hooks mx ~source

(* ---- Inspection (verification and digests) ------------------------------ *)

type nbr_view = {
  nv_node : int;
  nv_alive : bool;
  nv_metric : int;
  nv_genid : int;
}

type node_view = {
  vw_member : bool;
  vw_expressed : (int * bool) option;  (* (parent, polarity) *)
  vw_down : int list;
  vw_nbrs : nbr_view list;
}

let view t =
  let st = S.state t in
  let now = S.now t in
  let node ns =
    let vw_nbrs =
      Tbl.fold
        (fun v (r : nbr) acc ->
          {
            nv_node = v;
            nv_alive = now <= r.n_heard;
            nv_metric = r.n_metric;
            nv_genid = r.n_genid;
          }
          :: acc)
        ns.nbrs []
      |> List.sort (fun a b -> compare a.nv_node b.nv_node)
    in
    {
      vw_member = ns.ns_member;
      vw_expressed = Option.map (fun (p, pol, _) -> (p, pol)) ns.up_state;
      vw_down = Iset.elements ns.down;
      vw_nbrs;
    }
  in
  (* Descending over the dense slots, so the list comes out ascending. *)
  let acc = ref [] in
  for n = Array.length st.nodes - 1 downto 0 do
    match st.nodes.(n) with
    | Some ns -> acc := (n, node ns) :: !acc
    | None -> ()
  done;
  !acc

let genid t n = Option.map (fun ns -> ns.ns_genid) (find_state (S.state t) n)
let pending_digest t b = Rel.digest (S.state t).rel b

let metric t n =
  match find_state (S.state t) n with
  | Some ns -> metric_of t n ns
  | None ->
      (* No neighbor records, so nothing can override routing's figure. *)
      Routing.Dijkstra.dist
        (Routing.Table.in_tree (Net.table (S.network t)) (S.source t))
        n
