(* The converged tree is the replay of one source epoch: tree/data
   messages flow from the source toward each root receiver and, at
   every branching router whose MFT.dst is a flow's target, fork to the
   router's receiver entries (REUNITE's recursive unicast).  The model
   keeps that replay as its state instead of re-running it: every flow
   is stored once, with the route it takes and its arrival times, and
   every router keeps the flows that pass it in arrival order.  A join
   of a new member creates exactly one flow (to the member), so it
   inserts that one flow and leaves the others as they are; DESIGN.md
   §5 states the invariant and the DFS-position tie rule. *)

type flow = {
  target : int;
  key : int array;
      (* DFS position: the root's index, then a (hop, receiver index)
         pair per fork on the way down.  Compared lexicographically,
         keys order flows as the replay emits them. *)
  nodes : int array; (* start .. target *)
  times : float array; (* elapsed time on reaching each of [nodes] *)
  mutable children : flow list; (* the flows it forks, DFS order *)
}

(* [flow] reaching its [hop]-th node, [at] time units after the
   source sent. *)
type arrival = { at : float; flow : flow; hop : int }

type mft = { dst : int; mutable receivers : int list }

type t = {
  table : Routing.Table.t;
  graph : Topology.Graph.t;
  source : int;
  mft : mft option array;
  arrivals : arrival list array;
      (* the flows passing each router (not starting or ending there),
         ordered by (arrival time, DFS position) *)
  fork : arrival option array;
      (* at a branching router: the arrival that forks there, the
         first flow to its dst in DFS order *)
  member : bool array;
  mutable members : int list; (* reverse join order *)
  mutable roots : flow list; (* the source's flows, DFS order *)
  mutable flow_inserts : int;
}

let create table ~source =
  let graph = Routing.Table.graph table in
  let n = Topology.Graph.node_count graph in
  {
    table;
    graph;
    source;
    mft = Array.make n None;
    arrivals = Array.make n [];
    fork = Array.make n None;
    member = Array.make n false;
    members = [];
    roots = [];
    flow_inserts = 0;
  }

let flow_inserts t = t.flow_inserts
let is_member t r = r >= 0 && r < Array.length t.member && t.member.(r)
let mem_int x l = List.exists (Int.equal x) l

(* Emission order of the installs at [ka @ [ha]] and [kb @ [hb]]:
   lexicographic, a prefix first (a router's install precedes the
   flows it forks). *)
let dfs_compare (ka : int array) (ha : int) (kb : int array) (hb : int) =
  let la = Array.length ka and lb = Array.length kb in
  let rec go i =
    if i > la || i > lb then Int.compare la lb
    else
      let a = if i < la then ka.(i) else ha
      and b = if i < lb then kb.(i) else hb in
      if a <> b then Int.compare a b else go (i + 1)
  in
  go 0

(* First arrival wins; equal times go by emission order. *)
let before a b =
  let c = Float.compare a.at b.at in
  c < 0 || (c = 0 && dfs_compare a.flow.key a.hop b.flow.key b.hop < 0)

let rec insert_arrival x = function
  | y :: rest when before y x -> y :: insert_arrival x rest
  | l -> x :: l

(* A forked flow's position among its parent's other forks: fork hop,
   then receiver index. *)
let fork_hop f = f.key.(Array.length f.key - 2)
let fork_index f = f.key.(Array.length f.key - 1)

let add_child parent c =
  let rec ins = function
    | d :: rest
      when fork_hop d < fork_hop c
           || (fork_hop d = fork_hop c && fork_index d < fork_index c) ->
        d :: ins rest
    | l -> c :: l
  in
  parent.children <- ins parent.children

(* The one insert path.  Store the flow from [from_node] to [target]
   along [target]'s in-tree and file an arrival at every router it
   passes.  Where it reaches a branching router whose dst is [target]
   and that no earlier flow (in DFS order) forked, it forks there to
   the router's receivers — each router forks at most once, like the
   protocol's per-epoch gating (trees) and RPF check (data), so cyclic
   capture structures cannot recurse forever.  A flow to a new member
   never forks: no MFT names it as dst yet. *)
let rec insert_flow t ~key ~from_node ~elapsed ~target =
  t.flow_inserts <- t.flow_inserts + 1;
  let tree = Routing.Table.in_tree t.table target in
  if not (Routing.Dijkstra.reachable tree from_node) then
    invalid_arg
      (Printf.sprintf "Reunite.Analytic.flow: %d cannot reach %d" from_node
         target);
  let rec length u n =
    if u = target then n else length (Routing.Dijkstra.next tree u) (n + 1)
  in
  let len = length from_node 1 in
  let nodes = Array.make len from_node and times = Array.make len elapsed in
  for h = 1 to len - 1 do
    let u = nodes.(h - 1) in
    let v = Routing.Dijkstra.next tree u in
    nodes.(h) <- v;
    times.(h) <- times.(h - 1) +. Topology.Graph.delay t.graph u v
  done;
  let f = { target; key; nodes; times; children = [] } in
  for h = 1 to len - 2 do
    let v = nodes.(h) in
    let a = { at = times.(h); flow = f; hop = h } in
    t.arrivals.(v) <- insert_arrival a t.arrivals.(v);
    match t.mft.(v) with
    | Some m when m.dst = target && Option.is_none t.fork.(v) ->
        t.fork.(v) <- Some a;
        List.iteri (fun j r -> fork_to t a j r) m.receivers
    | Some _ | None -> ()
  done;
  f

and fork_to t a j r =
  add_child a.flow
    (insert_flow t
       ~key:(Array.append a.flow.key [| a.hop; j |])
       ~from_node:a.flow.nodes.(a.hop) ~elapsed:a.at ~target:r)

let add_root t r =
  let f =
    insert_flow t ~key:[| List.length t.roots |] ~from_node:t.source
      ~elapsed:0.0 ~target:r
  in
  t.roots <- t.roots @ [ f ]

(* Drop every flow and insert them all again in DFS order. *)
let rebuild t =
  Array.fill t.arrivals 0 (Array.length t.arrivals) [];
  Array.fill t.fork 0 (Array.length t.fork) None;
  t.roots <- [];
  match t.mft.(t.source) with
  | None -> ()
  | Some m -> List.iter (add_root t) (m.dst :: m.receivers)

let in_mft t n r =
  match t.mft.(n) with
  | Some m -> m.dst = r || mem_int r m.receivers
  | None -> false

(* A router's control entries: the targets of the flows passing it,
   first arrival first, without duplicates and without its own MFT
   entries. *)
let mct_of t n =
  List.fold_left
    (fun acc a ->
      let r = a.flow.target in
      if mem_int r acc || in_mft t n r then acc else r :: acc)
    [] t.arrivals.(n)
  |> List.rev

(* Only members have flows, so the arrival scan is skipped for a new
   member's join. *)
let in_mct t n r =
  is_member t r
  && List.exists (fun a -> a.flow.target = r) t.arrivals.(n)

(* Where a join walk left its receiver: in the source's table, in a
   branching router's receivers (one that just turned branching
   included), or nowhere new. *)
type capture = At_source | At of int | Unchanged

(* One join (or refresh-join) walk of receiver [r] up its reverse
   path, exactly mirroring the event protocol's capture rules: a
   matching dst lets the join pass (the dst's entry lives upstream),
   a matching receiver entry or a capture stops it. *)
let join_walk t tree r =
  let rec walk w =
    if w = t.source then begin
      match t.mft.(w) with
      | None ->
          t.mft.(w) <- Some { dst = r; receivers = [] };
          At_source
      | Some m ->
          if m.dst <> r && not (mem_int r m.receivers) then begin
            m.receivers <- m.receivers @ [ r ];
            At_source
          end
          else Unchanged
    end
    else if in_mct t w r then
      (* Relaying r's flow in transit; the join passes. *)
      walk (Routing.Dijkstra.next tree w)
    else
      match t.mft.(w) with
      | Some m when m.dst = r ->
          (* The dst's entry is owned upstream; pass through. *)
          walk (Routing.Dijkstra.next tree w)
      | Some m ->
          if mem_int r m.receivers then Unchanged
          else begin
            m.receivers <- m.receivers @ [ r ];
            At w
          end
      | None -> (
          match t.arrivals.(w) with
          | a :: _ ->
              (* The oldest relayed flow moves into the new MFT as
                 dst; the other control entries stay. *)
              t.mft.(w) <- Some { dst = a.flow.target; receivers = [ r ] };
              At w
          | [] -> walk (Routing.Dijkstra.next tree w))
  in
  walk (Routing.Dijkstra.next tree r)

(* The first flow (in DFS order) to [dst] that passes [w]: the one
   that forks at [w] once [w] branches for [dst]. *)
let first_arrival_to t w dst =
  List.fold_left
    (fun best a ->
      if a.flow.target <> dst then best
      else
        match best with
        | Some b when dfs_compare b.flow.key b.hop a.flow.key a.hop < 0 -> best
        | Some _ | None -> Some a)
    None t.arrivals.(w)

(* A join of a new member [r] creates one flow: from the source, or
   forked where the join was captured, by the flow that forks there (a
   router that just turned branching learns it now).  The one
   exception is a source that some flow passes in transit and forks
   at; that only happens with a router source, and then everything is
   re-inserted. *)
let insert_new_member t r = function
  | At_source ->
      if Option.is_some t.fork.(t.source) then rebuild t else add_root t r
  | At w -> (
      let m = Option.get t.mft.(w) in
      if Option.is_none t.fork.(w) then
        t.fork.(w) <- first_arrival_to t w m.dst;
      match t.fork.(w) with
      | Some a -> fork_to t a (List.length m.receivers - 1) r
      | None -> ())
  | Unchanged -> ()

let join t r =
  if not (is_member t r) then begin
    if r = t.source then
      invalid_arg "Reunite.Analytic.join: source cannot join";
    let tree = Routing.Table.in_tree t.table t.source in
    if not (Routing.Dijkstra.reachable tree r) then
      invalid_arg
        (Printf.sprintf "Reunite.Analytic.join: %d cannot reach source" r);
    insert_new_member t r (join_walk t tree r);
    t.member.(r) <- true;
    t.members <- r :: t.members
  end

let fingerprint t =
  List.init (Array.length t.mft) (fun n ->
      ( mct_of t n,
        Option.map
          (fun m -> (m.dst, List.sort Int.compare m.receivers))
          t.mft.(n) ))

(* Between two arrivals every member keeps sending refresh joins;
   those may be captured by tables that appeared since (the new
   arrival's conversions), adding the member at the capture point
   while its old entry lives on until t2 — which is beyond the
   construction window the paper measures.  Re-walk all members
   against the tables as they stand, then re-insert every flow, until
   the capture structure stops growing. *)
let settle t =
  let tree = Routing.Table.in_tree t.table t.source in
  let rec rounds budget =
    if budget > 0 then begin
      let before = fingerprint t in
      List.iter (fun r -> ignore (join_walk t tree r)) (List.rev t.members);
      rebuild t;
      if fingerprint t <> before then rounds (budget - 1)
    end
  in
  rounds 10

let leave t r =
  if is_member t r then begin
    let remaining = List.filter (fun m -> m <> r) (List.rev t.members) in
    Array.fill t.mft 0 (Array.length t.mft) None;
    Array.fill t.member 0 (Array.length t.member) false;
    t.members <- [];
    rebuild t (* no source table: drops every flow *);
    List.iter (join t) remaining
  end

(* Walk the flows in replay order: a flow's links, the flows it forks
   at each router right after reaching it, then its delivery. *)
let iter_replay t ~on_link ~on_delivery =
  let rec go f =
    let children = ref f.children in
    for h = 1 to Array.length f.nodes - 1 do
      on_link f h;
      let rec forks () =
        match !children with
        | c :: rest when fork_hop c = h ->
            children := rest;
            go c;
            forks ()
        | _ -> ()
      in
      forks ()
    done;
    on_delivery f
  in
  List.iter go t.roots

let distribution t =
  let dist = Mcast.Distribution.create ~source:t.source in
  iter_replay t
    ~on_link:(fun f h ->
      Mcast.Distribution.add_copy dist f.nodes.(h - 1) f.nodes.(h))
    ~on_delivery:(fun f ->
      Mcast.Distribution.deliver dist ~receiver:f.target
        ~delay:f.times.(Array.length f.times - 1));
  dist

(* The route of the first copy delivered to [r] in replay order: the
   trail holds, reversed, the route to the current hop — each flow
   pushes its hops as it goes and pops them once delivered, so a
   forked flow extends its parent's route up to the fork. *)
let data_path t r =
  if not (is_member t r) then None
  else begin
    let trail = ref [ t.source ] and found = ref None in
    iter_replay t
      ~on_link:(fun f h -> trail := f.nodes.(h) :: !trail)
      ~on_delivery:(fun f ->
        if f.target = r && Option.is_none !found then
          found := Some (List.rev !trail);
        for _ = 2 to Array.length f.nodes do
          trail := List.tl !trail
        done);
    !found
  end

let state t =
  let mct = ref 0 and mft = ref 0 and branching = ref 0 and on_tree = ref 0 in
  for i = 0 to Array.length t.mft - 1 do
    if Topology.Graph.is_router t.graph i then begin
      let entries = List.length (mct_of t i) in
      mct := !mct + entries;
      (match t.mft.(i) with
      | Some m ->
          mft := !mft + 1 + List.length m.receivers;
          incr branching
      | None -> ());
      if entries > 0 || Option.is_some t.mft.(i) then incr on_tree
    end
  done;
  {
    Mcast.Metrics.mct_entries = !mct;
    mft_entries = !mft;
    branching_routers = !branching;
    on_tree_routers = !on_tree;
  }

let mft_of t n =
  match t.mft.(n) with Some m -> Some (m.dst, m.receivers) | None -> None

let build table ~source ~receivers =
  let t = create table ~source in
  List.iter (join t) receivers;
  distribution t
