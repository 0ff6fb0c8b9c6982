type mft = { mutable dst : int; mutable receivers : int list }

type node_state = { mutable mct : int list (* flow-arrival order *); mutable mft : mft option }

type t = {
  table : Routing.Table.t;
  graph : Topology.Graph.t;
  source : int;
  nodes : node_state array;
  mutable members : int list; (* join order *)
}

let create table ~source =
  let graph = Routing.Table.graph table in
  {
    table;
    graph;
    source;
    nodes =
      Array.init (Topology.Graph.node_count graph) (fun _ ->
          { mct = []; mft = None });
    members = [];
  }

let members t = t.members

(* Tree/data messages flow from [from_node] toward [target]; at every
   intermediate branching router whose MFT.dst is [target] the flow
   forks to the router's receiver entries (REUNITE's recursive
   unicast).  [on_link] and [on_delivery] make the same walk serve
   both MCT reconstruction and data replay.  [forked] is shared across
   one whole replay: each branching router forks at most once, like
   the protocol's per-epoch gating (trees) and RPF check (data), so
   cyclic capture structures cannot recurse forever. *)
let rec flow t ~forked ~from_node ~target ~elapsed ~on_link ~on_node
    ~on_delivery =
  (* Follow [target]'s in-tree next hops: the hops of
     [Routing.Table.path t.table from_node target], without building
     the list. *)
  let tree = Routing.Table.in_tree t.table target in
  if not (Routing.Dijkstra.reachable tree from_node) then
    invalid_arg
      (Printf.sprintf "Reunite.Analytic.flow: %d cannot reach %d" from_node
         target);
  let rec walk u elapsed =
    let v = Routing.Dijkstra.next tree u in
    on_link u v;
    let elapsed = elapsed +. Topology.Graph.delay t.graph u v in
    if v = target then on_delivery target elapsed
    else begin
      on_node v target elapsed;
      (match t.nodes.(v).mft with
      | Some m when m.dst = target && not (Hashtbl.mem forked v) ->
          Hashtbl.replace forked v ();
          List.iter
            (fun rj ->
              flow t ~forked ~from_node:v ~target:rj ~elapsed ~on_link ~on_node
                ~on_delivery)
            m.receivers
      | Some _ | None -> ());
      walk v elapsed
    end
  in
  if from_node = target then on_delivery target elapsed
  else walk from_node elapsed

(* Replay one full source epoch over all roots with a fresh fork
   budget. *)
let replay t ~on_link ~on_node ~on_delivery roots =
  let forked = Hashtbl.create 16 in
  List.iter
    (fun target ->
      flow t ~forked ~from_node:t.source ~target ~elapsed:0.0 ~on_link ~on_node
        ~on_delivery)
    roots

let roots t =
  match t.nodes.(t.source).mft with
  | None -> []
  | Some m -> m.dst :: m.receivers

(* Rebuild every MCT from scratch by replaying the tree messages over
   the current MFTs: a non-branching router on the path of tree(S, r)
   holds MCT = r.  Conflicting installs are resolved by propagation
   delay (the first tree message to arrive wins, ties broken by
   emission order), matching the event-driven protocol exactly. *)
let recompute_mct t =
  Array.iter (fun ns -> ns.mct <- []) t.nodes;
  let installs = ref [] in
  let order = ref 0 in
  replay t
    ~on_link:(fun _ _ -> ())
    ~on_node:(fun v tgt elapsed ->
      incr order;
      installs := (elapsed, !order, v, tgt) :: !installs)
    ~on_delivery:(fun _ _ -> ())
    (roots t);
  (* Every flow through a router leaves a control entry — branching
     nodes included, for their transit flows — in first-arrival order
     (delay, then emission order).  Targets the node's own MFT records
     are excluded. *)
  List.iter
    (fun (_, _, v, tgt) ->
      let ns = t.nodes.(v) in
      let in_mft =
        match ns.mft with
        | Some m -> m.dst = tgt || List.mem tgt m.receivers
        | None -> false
      in
      if (not in_mft) && not (List.mem tgt ns.mct) then
        ns.mct <- ns.mct @ [ tgt ])
    (List.sort
       (fun (e1, o1, _, _) (e2, o2, _, _) ->
         (* [order] is unique: the same order as [compare] on the
            whole tuple, without polymorphic comparison. *)
         let c = Float.compare e1 e2 in
         if c <> 0 then c else Int.compare o1 o2)
       (List.rev !installs))

(* One join (or refresh-join) walk of receiver [r] up its reverse
   path, exactly mirroring the event protocol's capture rules: a
   matching dst lets the join pass (the dst's entry lives upstream),
   a matching receiver entry or a capture stops it. *)
let join_walk t r =
  let rec walk = function
    | [] -> ()
    | w :: rest ->
        if w = t.source then begin
          match t.nodes.(w).mft with
          | None -> t.nodes.(w).mft <- Some { dst = r; receivers = [] }
          | Some m ->
              if m.dst <> r && not (List.mem r m.receivers) then
                m.receivers <- m.receivers @ [ r ]
        end
        else begin
          if List.mem r t.nodes.(w).mct then
            (* Relaying r's flow in transit; the join passes. *)
            walk rest
          else
            match t.nodes.(w).mft with
            | Some m when m.dst = r ->
                (* The dst's entry is owned upstream; pass through. *)
                walk rest
            | Some m ->
                if not (List.mem r m.receivers) then
                  m.receivers <- m.receivers @ [ r ]
            | None -> (
                match t.nodes.(w).mct with
                | rj :: rest_mct ->
                    (* Oldest relayed flow moves into the new MFT as
                       dst; the other control entries stay. *)
                    t.nodes.(w).mct <- rest_mct;
                    t.nodes.(w).mft <- Some { dst = rj; receivers = [ r ] }
                | [] -> walk rest)
        end
  in
  match Routing.Table.path t.table r t.source with
  | _ :: rest -> walk rest
  | [] -> ()

let fingerprint t =
  Array.to_list t.nodes
  |> List.map (fun ns ->
         ( ns.mct,
           Option.map (fun m -> (m.dst, List.sort compare m.receivers)) ns.mft ))

(* Between two arrivals every member keeps sending refresh joins;
   those may be captured by tables that appeared since (the new
   arrival's conversions), adding the member at the capture point
   while its old entry lives on until t2 — which is beyond the
   construction window the paper measures.  Re-walk all members until
   the capture structure stops growing. *)
let settle_refresh_joins t =
  let rec rounds budget =
    if budget > 0 then begin
      let before = fingerprint t in
      List.iter (join_walk t) t.members;
      recompute_mct t;
      if fingerprint t <> before then rounds (budget - 1)
    end
  in
  rounds 10

let do_join t r =
  if r = t.source then invalid_arg "Reunite.Analytic.join: source cannot join";
  if not (Routing.Table.reachable t.table r t.source) then
    invalid_arg (Printf.sprintf "Reunite.Analytic.join: %d cannot reach source" r);
  join_walk t r;
  recompute_mct t

let settle t = settle_refresh_joins t

let join t r =
  if not (List.mem r t.members) then begin
    do_join t r;
    t.members <- t.members @ [ r ]
  end

let reset t =
  Array.iter
    (fun ns ->
      ns.mct <- [];
      ns.mft <- None)
    t.nodes

let leave t r =
  if List.mem r t.members then begin
    let remaining = List.filter (fun m -> m <> r) t.members in
    reset t;
    t.members <- [];
    List.iter
      (fun m ->
        do_join t m;
        t.members <- t.members @ [ m ])
      remaining
  end

let distribution t =
  let dist = Mcast.Distribution.create ~source:t.source in
  replay t
    ~on_link:(fun u v -> Mcast.Distribution.add_copy dist u v)
    ~on_node:(fun _ _ _ -> ())
    ~on_delivery:(fun r d -> Mcast.Distribution.deliver dist ~receiver:r ~delay:d)
    (roots t);
  dist

let data_path t r =
  if not (List.mem r t.members) then None
  else begin
    (* Re-run the replay keeping the hop trail of every copy; the
       trail alive when delivery hits r is r's data route. *)
    let found = ref None in
    let forked = Hashtbl.create 16 in
    let rec go ~from_node ~target ~trail =
      let path = Routing.Table.path t.table from_node target in
      let rec walk trail = function
        | _ :: (v :: _ as rest) ->
            let trail = v :: trail in
            if v = target then begin
              if target = r && !found = None then found := Some (List.rev trail)
            end
            else begin
              (match t.nodes.(v).mft with
              | Some m when m.dst = target && not (Hashtbl.mem forked v) ->
                  Hashtbl.replace forked v ();
                  List.iter
                    (fun rj -> go ~from_node:v ~target:rj ~trail)
                    m.receivers
              | Some _ | None -> ());
              walk trail rest
            end
        | [ _ ] | [] -> ()
      in
      walk trail path
    in
    List.iter
      (fun target -> go ~from_node:t.source ~target ~trail:[ t.source ])
      (roots t);
    !found
  end

let state t =
  let mct = ref 0 and mft = ref 0 and branching = ref 0 and on_tree = ref 0 in
  Array.iteri
    (fun i ns ->
      if Topology.Graph.is_router t.graph i then begin
        mct := !mct + List.length ns.mct;
        (match ns.mft with
        | Some m ->
            mft := !mft + 1 + List.length m.receivers;
            incr branching
        | None -> ());
        if ns.mct <> [] || ns.mft <> None then incr on_tree
      end)
    t.nodes;
  {
    Mcast.Metrics.mct_entries = !mct;
    mft_entries = !mft;
    branching_routers = !branching;
    on_tree_routers = !on_tree;
  }

let branching_routers t =
  let acc = ref [] in
  Array.iteri
    (fun i ns ->
      if ns.mft <> None && Topology.Graph.is_router t.graph i then acc := i :: !acc)
    t.nodes;
  List.rev !acc

let mft_of t n =
  match t.nodes.(n).mft with
  | Some m -> Some (m.dst, m.receivers)
  | None -> None

let mct_of t n = t.nodes.(n).mct

let build table ~source ~receivers =
  let t = create table ~source in
  List.iter (fun r -> join t r) receivers;
  distribution t
