module Net = Netsim.Network
module G = Topology.Graph
module R = Routing.Table
module Ss = Proto.Softstate

type violation = { oracle : string; detail : string }

(* The system under test, as a monomorphic closure bundle: the
   protocol stacks have distinct message types (so distinct network
   and session types), but the explorer only needs a fixed verb set —
   drive time, churn members, inject faults, checkpoint, digest, and
   expose the data-plane fan-out rule for the structural oracles.
   Wrapping each session in closures erases the message type without
   an existential. *)
type t = {
  proto : string;
  graph : G.t;
  table : Routing.Table.t;
  source : int;
  candidates : int list;  (** hosts the scenarios may subscribe *)
  control_period : float;
  t2 : float;
  engine : Eventsim.Engine.t;
      (** the session's engine — lets monitors arm their own periodic
          probes alongside the protocol's timers *)
  trace : Obs.Trace.t;  (** the session network's trace sink *)
  subscribe : int -> unit;
  unsubscribe : int -> unit;
  members : unit -> int list;
  failed_links : unit -> (int * int) list;  (** ascending, [u < v] *)
  node_up : int -> bool;
  now : unit -> float;
  run_for : float -> unit;
  converge : unit -> unit;  (** run the session's default convergence window *)
  send_probe : unit -> int;
      (** send one data packet; its sequence number, or 0 when there
          was no tree to send down *)
  on_delivery : (now:float -> receiver:int -> seq:int -> unit) -> unit;
      (** observe every data delivery with its sequence number *)
  control_hops : unit -> int;  (** control-message link traversals so far *)
  counters : unit -> Net.counters;
  spans : Obs.Span.t;  (** the session's causal spans *)
  install_plan : seed:int -> Fault.Plan.t -> unit;
      (** seed the fault RNG and schedule the plan relative to now,
          through the same injector as [inject] *)
  save : unit -> unit -> unit;
      (** checkpoint; the returned thunk restores it (any number of
          times) *)
  inject : Fault.Plan.action -> unit;
      (** apply one plan action now (membership hooks wired) *)
  probe : unit -> (int * float) list;
      (** send one data packet, run a delivery horizon, return the
          [(receiver, delay)] deliveries it produced *)
  dump_tables : Buffer.t -> unit;
      (** canonical soft-state dump into the digest's buffer (see
          {!state_digest}) *)
  data_targets : int -> int list;
      (** the session's data-plane fan-out rule, read now *)
  intercept_on_path : bool;
      (** REUNITE-style: forwarding state forks traffic {e passing
          through} the node; false means only traffic addressed to the
          node fans out (HBH, PIM-SSM) *)
  oracles : t -> violation list;
      (** the protocol's own structural oracles, from its view, run
          on the given wrapping of this session *)
}

(* ---- Canonical state digests ------------------------------------------ *)

(* The digest hashes one canonical byte encoding, written straight
   into one buffer: every int as 8 little-endian bytes behind a
   one-char tag that fixes what follows, so the encoding parses back
   unambiguously and two states share it exactly when they share the
   digested fields.  Digests are only ever compared for equality. *)
let add_int b n = Buffer.add_int64_le b (Int64.of_int n)

let add_tagged b tag n =
  Buffer.add_char b tag;
  add_int b n

(* Soft-state deadlines are absolute; canonicalize to [deadline - now]
   bucketed coarsely so two states reached along different schedules
   (whose refresh phases differ by less than a bucket) digest
   equally.  A decaying entry crosses a bucket boundary every 25 time
   units, so the digest keeps changing until the entry dies — which is
   exactly what makes digest-stability a sound quiescence test (state
   that is still draining never looks settled).

   Deadlines already in the past are clamped to one token: an entry
   that is permanently stale-but-refreshed (HBH's fusion rule keeps
   t1 expired while renewing t2, so [fresh_until] recedes without
   bound) behaves identically whether it lapsed 50 or 500 time units
   ago, and an unclamped remainder would keep the digest churning —
   and quiescence unreachable — in a perfectly steady tree. *)
let bucket ~now deadline =
  max (-1) (int_of_float (Float.round ((deadline -. now) /. 25.0)))

(* The mark is summarized as a boolean through [entry_marked] — not a
   bucketed remaining time — so a mark that never lapses (the
   mark-decay mutant, test/mutants) yields a stable digest instead of
   blocking quiescence forever. *)
let add_entry b ~now (e : Ss.entry) =
  add_tagged b (if Ss.entry_marked e ~now then 'M' else 'e') e.Ss.node;
  add_int b (bucket ~now e.Ss.tm.fresh_until);
  add_int b (bucket ~now e.Ss.tm.expires_at)

let add_entries b ~now entries = List.iter (add_entry b ~now) entries

(* Members, failed links and crashed nodes, each section ended by ['|']
   (a tag none of them uses); the protocol's tables fill the rest. *)
let state_digest sut =
  let b = Buffer.create 512 in
  List.iter (add_tagged b 'm') (sut.members ());
  Buffer.add_char b '|';
  List.iter
    (fun (u, v) ->
      add_tagged b 'l' u;
      add_int b v)
    (sut.failed_links ());
  Buffer.add_char b '|';
  for n = 0 to G.node_count sut.graph - 1 do
    if not (sut.node_up n) then add_tagged b 'x' n
  done;
  Buffer.add_char b '|';
  sut.dump_tables b;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- What every oracle shares ----------------------------------------- *)

(* Per-oracle check/violation counters, fetched from the current
   domain's registry on demand so the metric namespace only contains
   oracles that actually ran.  No memo table: a process-global cache
   here would both leak across scoped registries and race across
   domains, and oracle checks only run at quiescent points, where a
   registry lookup is noise. *)
let count_check ~oracle hit =
  let t = Obs.Metrics.default () in
  Obs.Metrics.incr
    (Obs.Metrics.counter t (Printf.sprintf "verif.oracle.%s.checks" oracle));
  if hit then
    Obs.Metrics.incr
      (Obs.Metrics.counter t
         (Printf.sprintf "verif.oracle.%s.violations" oracle))

(* BFS over operational links between up nodes: the ground truth the
   oracles compare the tree against.  Members the topology has cut off
   are excused; everyone else must be covered. *)
let reachable sut =
  let g = sut.graph in
  let seen = Array.make (G.node_count g) false in
  let q = Queue.create () in
  if sut.node_up sut.source then begin
    seen.(sut.source) <- true;
    Queue.add sut.source q
  end;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, lid) ->
        if (not seen.(v)) && (G.link g lid).G.up && sut.node_up v then begin
          seen.(v) <- true;
          Queue.add v q
        end)
      (G.adjacency g u)
  done;
  seen

(* ---- Protocol views --------------------------------------------------- *)

(* The protocol-specific slice of [t]: the state-destruction deadline
   read from the session's own config, the canonical table dump and
   the protocol's own structural oracles, which [Oracle.structural_check]
   runs after the generic tree check.  Everything else — the control
   period and the data-plane fan-out included — is wired generically
   over the session signature by [wrap]. *)
type view = {
  t2 : float;
  dump_tables : Buffer.t -> unit;
  intercept_on_path : bool;
  oracles : t -> violation list;
}

let no_oracles _ = []

let hbh_view (p : Hbh.Protocol.t) : view =
  let module P = Hbh.Protocol in
  let cfg = P.config p in
  let now () = Eventsim.Engine.now (P.engine p) in
  (* The source's MFT entries, then per router a ['C'] (control)
     or ['F'] (forwarding) header and its entries. *)
  let dump_tables b =
    let now = now () in
    add_entries b ~now (Ss.Table.entries (P.source_table p));
    List.iter
      (fun (n, cs) ->
        match cs with
        | Hbh.Tables.No_state -> ()
        | Hbh.Tables.Control mct ->
            add_tagged b 'C' n;
            add_entry b ~now mct
        | Hbh.Tables.Forwarding mft ->
            add_tagged b 'F' n;
            add_entries b ~now (Ss.Table.entries mft))
      (P.all_tables p)
  in
  (* "The first join reaches the source": whenever at least one
     reachable member exists, the source must hold forwarding state —
     HBH's join interception must never strand all receivers below a
     router that cannot reach the source (Section 3.2). *)
  let first_join sut =
    let reachable = reachable sut in
    let has_member = List.exists (fun m -> reachable.(m)) (sut.members ()) in
    let bad = has_member && Ss.Table.is_empty (P.source_table p) in
    count_check ~oracle:"hbh_first_join" bad;
    if bad then
      [
        {
          oracle = "hbh_first_join";
          detail = "members exist but the source holds no forwarding state";
        };
      ]
    else []
  in
  (* "Fusion places the branching router on the unicast path": every
     branching router actively emitting tree messages (a forwarding
     table with non-stale entries) must lie on the unicast path
     between the source and some current member — in either
     direction, since joins refresh state along reverse paths while
     fusion installs it along forward paths, and the two can differ
     under asymmetric link costs. *)
  let branch_on_path sut =
    let members = sut.members () in
    let on_path a b n =
      R.reachable sut.table a b && List.mem n (R.path sut.table a b)
    in
    let on_some_path n =
      List.exists
        (fun m -> on_path sut.source m n || on_path m sut.source n)
        members
    in
    let nw = now () in
    let stray =
      List.filter_map
        (fun (n, cs) ->
          match cs with
          | Hbh.Tables.Forwarding mft
            when Ss.Table.fresh_targets mft ~now:nw <> []
                 && sut.node_up n
                 && not (on_some_path n) ->
              Some n
          | Hbh.Tables.Forwarding _ | Hbh.Tables.Control _
          | Hbh.Tables.No_state ->
              None)
        (P.all_tables p)
    in
    count_check ~oracle:"hbh_branch_on_path" (stray <> []);
    List.map
      (fun b ->
        {
          oracle = "hbh_branch_on_path";
          detail =
            Printf.sprintf
              "branching router %d is on no source-member unicast path" b;
        })
      stray
  in
  {
    t2 = cfg.P.t2;
    dump_tables;
    intercept_on_path = false;
    oracles =
      (fun sut ->
        let first = first_join sut in
        first @ branch_on_path sut);
  }

let reunite_view (p : Reunite.Protocol.t) : view =
  let module P = Reunite.Protocol in
  let cfg = P.config p in
  let now () = Eventsim.Engine.now (P.engine p) in
  (* An MFT is ['D'] and its dst entry, ['U'] and its upstream, then
     its receiver entries.  The source's MFT (or ['-']) comes first,
     then per router a ['C'] header and its MCT entries and an ['F']
     header and its MFT. *)
  let mft_dump b ~now (mft : Reunite.Tables.Mft.t) =
    Buffer.add_char b 'D';
    add_entry b ~now (Reunite.Tables.Mft.dst mft);
    add_tagged b 'U' (Reunite.Tables.Mft.upstream mft);
    add_entries b ~now (Reunite.Tables.Mft.receivers mft)
  in
  let dump_tables b =
    let now = now () in
    (match P.source_table p with
    | None -> Buffer.add_char b '-'
    | Some mft -> mft_dump b ~now mft);
    List.iter
      (fun (n, (st : Reunite.Tables.channel_state)) ->
        (match st.mct with
        | None -> ()
        | Some mct ->
            add_tagged b 'C' n;
            add_entries b ~now (Ss.Table.entries mct));
        match st.mft with
        | None -> ()
        | Some mft ->
            add_tagged b 'F' n;
            mft_dump b ~now mft)
      (P.all_tables p)
  in
  {
    t2 = cfg.P.t2;
    dump_tables;
    intercept_on_path = true;
    oracles = no_oracles;
  }

let pim_view (p : Pim.Ssm.t) : view =
  let module P = Pim.Ssm in
  let cfg = P.config p in
  let now () = Eventsim.Engine.now (P.engine p) in
  (* Per router holding oifs, an ['N'] header and its entries. *)
  let dump_tables b =
    let now = now () in
    List.iter
      (fun (n, entries) ->
        if entries <> [] then begin
          add_tagged b 'N' n;
          add_entries b ~now entries
        end)
      (P.all_oifs p)
  in
  {
    t2 = cfg.P.holdtime;
    dump_tables;
    intercept_on_path = false;
    oracles = no_oracles;
  }

(* One HPIM-DM router-router link, as the assert-election and
   neighbor-consistency oracles read it. *)
type router_link = {
  u : int;
  v : int;  (** [u < v] *)
  u_sees_v : bool;  (** [u] holds a live hello record of [v] *)
  v_sees_u : bool;
  genid_ok : bool;
      (** both recorded generation IDs match the neighbor's actual
          one *)
  assert_view : (bool * bool) option;
      (** [(u_view, v_view)]: each endpoint's belief that [u] wins the
          link's assert election; [None] unless both endpoints hold a
          live record of the other (election not yet constituted) *)
}

let hpim_view (p : Hpim.Dm.t) : view =
  let module P = Hpim.Dm in
  let net = P.network p in
  let graph = Net.graph net in
  let source = P.source p in
  let cfg = P.config p in
  (* Hard-state tables digest without deadline buckets: entries change
     only on explicit events, so the raw structure is already
     canonical.  Per node holding state, an ['N'] header (['P'] for a
     member), the expressed upstream interest (['U'] positive, ['V']
     negative) and its parent, ['d'] per downstream entry and per
     neighbor record ['a'] (live) or ['X'] (timed out), its id and its
     advertised metric.  Generation IDs, hello sequence numbers and
     absolute liveness deadlines are monotonic bookkeeping and stay
     out (liveness enters only as the a/X flag); the reliable layer's
     pending slot keys follow — unacked control traffic in flight
     means the state has not settled. *)
  let dump_tables b =
    List.iter
      (fun (n, vw) ->
        add_tagged b (if vw.P.vw_member then 'P' else 'N') n;
        (match vw.P.vw_expressed with
        | Some (par, pol) -> add_tagged b (if pol then 'U' else 'V') par
        | None -> ());
        List.iter (add_tagged b 'd') vw.P.vw_down;
        List.iter
          (fun (r : P.nbr_view) ->
            add_tagged b (if r.P.nv_alive then 'a' else 'X') r.P.nv_node;
            add_int b r.P.nv_metric)
          vw.P.vw_nbrs)
      (P.view p);
    Buffer.add_char b '|';
    P.pending_digest p b
  in
  (* The assert-election and neighbor-consistency rows: one per up
     link between up routers (the source counts as a router), from
     one view of the neighbor tables. *)
  let is_router n = G.multicast_router graph n || n = source in
  let link_rows () =
    let nbrs = Hashtbl.create 32 in
    List.iter (fun (n, vw) -> Hashtbl.replace nbrs n vw.P.vw_nbrs) (P.view p);
    let nbr_of u v =
      match Hashtbl.find_opt nbrs u with
      | None -> None
      | Some rs -> List.find_opt (fun r -> r.P.nv_node = v) rs
    in
    let alive = function Some (r : P.nbr_view) -> r.P.nv_alive | None -> false in
    let genid_matches r g =
      match (r, g) with
      | Some (r : P.nbr_view), Some g -> r.P.nv_genid = g
      | (Some _ | None), (Some _ | None) -> false
    in
    let row u v =
      let ruv = nbr_of u v and rvu = nbr_of v u in
      {
        u;
        v;
        u_sees_v = alive ruv;
        v_sees_u = alive rvu;
        genid_ok =
          genid_matches ruv (P.genid p v) && genid_matches rvu (P.genid p u);
        assert_view =
          (match (ruv, rvu) with
          | Some ruv, Some rvu when ruv.P.nv_alive && rvu.P.nv_alive ->
              (* Each endpoint's belief that [u] wins: lexicographic
                 (metric, id), own live metric against the neighbor's
                 advertised one. *)
              let u_view = compare (P.metric p u, u) (ruv.P.nv_metric, v) < 0 in
              let v_view = compare (rvu.P.nv_metric, u) (P.metric p v, v) < 0 in
              Some (u_view, v_view)
          | (Some _ | None), (Some _ | None) -> None);
      }
    in
    let acc = ref [] in
    for u = 0 to G.node_count graph - 1 do
      if is_router u && Net.node_up net u then
        List.iter
          (fun (v, lid) ->
            if
              u < v && is_router v && Net.node_up net v
              && (G.link graph lid).G.up
            then acc := row u v :: !acc)
          (G.adjacency graph u)
    done;
    List.rev !acc
  in
  (* "Exactly one assert winner per link": at a quiescent point, both
     endpoints of every constituted router-router link must agree on
     who wins the link's assert election — disagreement means either
     both sides would feed data onto the link (duplicates) or neither
     would (a blackhole the hard state cannot heal by refresh). *)
  let assert_unique links =
    let bad =
      List.filter_map
        (fun l ->
          match l.assert_view with
          | Some (u_view, v_view) when u_view <> v_view ->
              Some (l.u, l.v, u_view, v_view)
          | Some _ | None -> None)
        links
    in
    count_check ~oracle:"hpim_assert_unique" (bad <> []);
    List.map
      (fun (u, v, u_view, v_view) ->
        {
          oracle = "hpim_assert_unique";
          detail =
            Printf.sprintf
              "link %d-%d: %d believes %d wins the assert, %d believes %d wins"
              u v u
              (if u_view then u else v)
              v
              (if v_view then u else v);
        })
      bad
  in
  (* "No data forwarding from assert losers": every data-plane fan-out
     edge toward a router must originate from the endpoint that wins
     that link's election in its own view (self-consistency between
     the rule the data plane forwards with and a node's election
     state). *)
  let assert_losers sut links =
    (* [(from, dst)] -> [from]'s own belief that it wins that link. *)
    let wins = Hashtbl.create 64 in
    List.iter
      (fun l ->
        match l.assert_view with
        | Some (u_view, v_view) ->
            Hashtbl.replace wins (l.u, l.v) u_view;
            Hashtbl.replace wins (l.v, l.u) (not v_view)
        | None -> ())
      links;
    let bad = ref [] in
    for n = 0 to G.node_count graph - 1 do
      List.iter
        (fun d ->
          if is_router d then
            match Hashtbl.find_opt wins (n, d) with
            | Some true | None -> ()
            | Some false -> bad := (n, d) :: !bad)
        (sut.data_targets n)
    done;
    count_check ~oracle:"hpim_assert_losers" (!bad <> []);
    List.map
      (fun (n, d) ->
        {
          oracle = "hpim_assert_losers";
          detail =
            Printf.sprintf
              "router %d forwards data to %d despite losing that link's assert"
              n d;
        })
      (List.rev !bad)
  in
  (* "Neighbor tables are consistent at quiescence": across every up
     link between up routers, hello liveness must be mutual and each
     side's recorded generation ID must match the neighbor's actual
     current one — a one-sided or stale view means the hard state the
     two routers hold about each other has silently diverged. *)
  let nbr_consistency links =
    let bad =
      List.filter (fun l -> not (l.u_sees_v && l.v_sees_u && l.genid_ok)) links
    in
    count_check ~oracle:"hpim_nbr_consistency" (bad <> []);
    List.map
      (fun { u; v; u_sees_v; v_sees_u; genid_ok; assert_view = _ } ->
        {
          oracle = "hpim_nbr_consistency";
          detail =
            Printf.sprintf
              "link %d-%d: liveness %d->%d=%b %d->%d=%b, generation IDs %s" u v
              u v u_sees_v v u v_sees_u
              (if genid_ok then "consistent" else "diverged");
        })
      bad
  in
  {
    t2 = cfg.P.holdtime;
    dump_tables;
    intercept_on_path = false;
    (* One read of the link rows, shared by the three oracles. *)
    oracles =
      (fun sut ->
        let links = link_rows () in
        let unique = assert_unique links in
        let losers = assert_losers sut links in
        unique @ losers @ nbr_consistency links);
  }

(* ---- The protocol registry --------------------------------------------- *)

type tree =
  Routing.Table.t -> source:int -> receivers:int list -> Mcast.Distribution.t

type regime = { join_spacing : int; settle_periods : int; reference : tree }

(* One row per protocol: the session instance, its view, the analytic
   reference tree the churn experiment measures drift against, the
   spellings [of_string] accepts besides the canonical name, and the
   paper's event-driven regime, if the paper runs the protocol. *)
type 's row = {
  instance : (module Proto.Session.S with type t = 's);
  view : 's -> view;
  analytic : tree;
  aliases : string list;
  regime : regime option;
}

let hbh_row =
  {
    instance = (module Hbh.Protocol);
    view = hbh_view;
    analytic = Hbh.Analytic.build;
    aliases = [];
    regime =
      Some
        {
          join_spacing = 0;
          settle_periods = 20;
          reference = Hbh.Analytic.build;
        };
  }

(* Sequential subscriptions pin the join order to the analytic model's
   (each join settled before the next); probing two periods after the
   last join measures the constructed tree — the paper's regime —
   before the long-run soft-state migrations (which the paper does not
   study) start reshaping it. *)
let reunite_reference table ~source ~receivers =
  let t = Reunite.Analytic.create table ~source in
  List.iter
    (fun r ->
      Reunite.Analytic.join t r;
      Reunite.Analytic.settle t)
    receivers;
  Reunite.Analytic.distribution t

let reunite_row =
  {
    instance = (module Reunite.Protocol);
    view = reunite_view;
    analytic = Reunite.Analytic.build;
    aliases = [];
    regime =
      Some
        { join_spacing = 3; settle_periods = 2; reference = reunite_reference };
  }

let pim_row =
  {
    instance = (module Pim.Ssm);
    view = pim_view;
    analytic = Pim.Pim_ss.build;
    aliases = [ "pim"; "pim_ssm" ];
    regime = None;
  }

(* HPIM-DM forwards along unicast shortest paths from the source,
   exactly PIM-SSM's tree shape — same analytic reference. *)
let hpim_row =
  {
    instance = (module Hpim.Dm);
    view = hpim_view;
    analytic = Pim.Pim_ss.build;
    aliases = [ "hpim"; "hpim_dm" ];
    regime = None;
  }

type protocol = Hbh | Reunite | Pim_ssm | Hpim_dm
type any_row = Row : 's row -> any_row

let all = [ Hbh; Reunite; Pim_ssm; Hpim_dm ]

let row = function
  | Hbh -> Row hbh_row
  | Reunite -> Row reunite_row
  | Pim_ssm -> Row pim_row
  | Hpim_dm -> Row hpim_row

let instance p =
  let (Row r) = row p in
  let module P = (val r.instance) in
  (module P : Proto.Session.S)

let label p =
  let module P = (val instance p) in
  P.label

let name p = String.lowercase_ascii (label p)

let of_string s =
  match
    List.find_opt
      (fun p ->
        let (Row r) = row p in
        name p = s || List.mem s r.aliases)
      all
  with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Verif.Sut: unknown protocol %S" s)

let analytic p =
  let (Row r) = row p in
  r.analytic

let regime p =
  let (Row r) = row p in
  r.regime

(* ---- The shared wiring ------------------------------------------------- *)

let default_candidates graph ~source =
  List.filter (fun h -> h <> source) (G.hosts graph)

let wrap (type s) (r : s row) ?candidates (p : s) =
  let module P = (val r.instance) in
  let v = r.view p in
  let control_period = P.control_period p in
  let net = P.network p in
  let graph = Net.graph net in
  let source = P.source p in
  let inj = Fault.Injector.create net in
  Fault.Injector.set_membership inj ~subscribe:(P.subscribe p)
    ~unsubscribe:(P.unsubscribe p);
  {
    proto = String.lowercase_ascii P.label;
    graph;
    table = Net.table net;
    source;
    candidates =
      (match candidates with
      | Some c -> c
      | None -> default_candidates graph ~source);
    control_period;
    t2 = v.t2;
    engine = P.engine p;
    trace = Net.trace net;
    subscribe = P.subscribe p;
    unsubscribe = P.unsubscribe p;
    members = (fun () -> P.members p);
    failed_links = (fun () -> Fault.Injector.failed_links inj);
    node_up = Net.node_up net;
    now = (fun () -> Eventsim.Engine.now (P.engine p));
    run_for = P.run_for p;
    converge = (fun () -> P.converge p);
    send_probe =
      (fun () ->
        let before = P.data_seq p in
        P.send_data p;
        let seq = P.data_seq p in
        if seq > before then seq else 0);
    on_delivery =
      (fun f ->
        Net.on_delivery net (fun ~now ~node pkt ->
            match pkt.Netsim.Packet.payload with
            | Proto.Messages.Data { seq; _ } -> f ~now ~receiver:node ~seq
            | Proto.Messages.Join _ | Proto.Messages.Tree _
            | Proto.Messages.Extra _ ->
                ()));
    control_hops = (fun () -> P.control_overhead p);
    counters = (fun () -> Net.counters net);
    spans = P.spans p;
    install_plan =
      (fun ~seed plan ->
        Net.set_fault_rng net (Stats.Rng.create seed);
        Fault.Injector.schedule inj plan);
    save =
      (fun () ->
        let s = P.snapshot p in
        let fs = Fault.Injector.save inj in
        fun () ->
          P.restore p s;
          Fault.Injector.restore inj fs);
    inject = Fault.Injector.apply inj;
    probe =
      (fun () ->
        Net.reset_data_accounting net;
        P.send_data p;
        P.run_for p (Proto.Session.probe_horizon control_period);
        Net.data_deliveries net);
    dump_tables = v.dump_tables;
    data_targets = P.data_targets p;
    intercept_on_path = v.intercept_on_path;
    oracles = v.oracles;
  }

let make ?candidates protocol table ~source =
  let (Row r) = row protocol in
  let module P = (val r.instance) in
  wrap r ?candidates (P.create table ~source)
