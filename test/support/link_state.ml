module G = Topology.Graph

type lsa = {
  origin : int;
  seq : int;
  out_links : (int * int) list; (* neighbor, directed cost origin -> neighbor *)
}

type router_state = { lsdb : (int, lsa) Hashtbl.t }

(* Per-router SPF memo: [view] is the router's directed-edge index as
   a routing view stamped with the LSDB generation it was built against
   (rebuilt once per generation, shared across destinations), and
   [trees] the destination-rooted in-trees computed so far. *)
type spf_cache = {
  mutable view : G.view option;
  trees : (int, Routing.Dijkstra.in_tree) Hashtbl.t;
}

type stats = {
  lsas_originated : int;
  messages_sent : int;
  converged_at : float;
}

type t = {
  engine : Eventsim.Engine.t;
  graph : G.t;
  routers : int list;
  states : (int, router_state) Hashtbl.t;
  seqs : (int, int) Hashtbl.t; (* latest sequence per origin *)
  caches : (int, spf_cache) Hashtbl.t;
  mutable generation : int; (* bumped on every LSDB change anywhere *)
  mutable originated : int;
  mutable messages : int;
  mutable last_change : float;
}

let m_spf = Obs.Metrics.hot_counter "routing.lsdb_spf_runs"
let m_hits = Obs.Metrics.hot_counter "routing.lsdb_cache_hits"
let m_rebuilds = Obs.Metrics.hot_counter "routing.lsdb_index_rebuilds"

let create engine graph =
  let routers = G.routers graph in
  let states = Hashtbl.create (List.length routers) in
  List.iter
    (fun r -> Hashtbl.replace states r { lsdb = Hashtbl.create 16 })
    routers;
  {
    engine;
    graph;
    routers;
    states;
    seqs = Hashtbl.create 16;
    caches = Hashtbl.create 16;
    generation = 0;
    originated = 0;
    messages = 0;
    last_change = 0.0;
  }

let read_links t r =
  List.map (fun nb -> (nb, G.cost t.graph r nb)) (G.neighbors t.graph r)

(* Install [lsa] at router [x]; returns true when it displaced older
   (or absent) information and must be re-flooded. *)
let install t x lsa =
  let st = Hashtbl.find t.states x in
  match Hashtbl.find_opt st.lsdb lsa.origin with
  | Some old when old.seq >= lsa.seq -> false
  | Some _ | None ->
      Hashtbl.replace st.lsdb lsa.origin lsa;
      t.last_change <- Eventsim.Engine.now t.engine;
      (* Any LSDB change anywhere invalidates every router's SPF memo
         (a single global generation keeps the hot path to one integer
         compare per query). *)
      t.generation <- t.generation + 1;
      true

let rec flood t ~from lsa =
  List.iter
    (fun nb ->
      if G.is_router t.graph nb && nb <> lsa.origin then begin
        t.messages <- t.messages + 1;
        let delay = G.delay t.graph from nb in
        ignore
          (Eventsim.Engine.schedule t.engine ~delay (fun () ->
               if install t nb lsa then flood t ~from:nb lsa))
      end)
    (G.neighbors t.graph from)

let originate t r =
  let seq = 1 + Option.value ~default:0 (Hashtbl.find_opt t.seqs r) in
  Hashtbl.replace t.seqs r seq;
  let lsa = { origin = r; seq; out_links = read_links t r } in
  t.originated <- t.originated + 1;
  ignore (install t r lsa);
  flood t ~from:r lsa

let start t = List.iter (fun r -> originate t r) t.routers

let reoriginate t r =
  if not (G.is_router t.graph r) then
    invalid_arg "Link_state.reoriginate: not a router";
  originate t r

let converged t =
  List.for_all
    (fun x ->
      let st = Hashtbl.find t.states x in
      List.for_all
        (fun o ->
          match (Hashtbl.find_opt st.lsdb o, Hashtbl.find_opt t.seqs o) with
          | Some lsa, Some seq -> lsa.seq = seq
          | _, None -> true
          | None, Some _ -> false)
        t.routers)
    t.routers

let stats t =
  {
    lsas_originated = t.originated;
    messages_sent = t.messages;
    converged_at = t.last_change;
  }

(* Router [r]'s directed-edge index from its advertised out-links, as
   a routing view.  Hosts advertise nothing; give each host its graph
   out-link so host-sourced paths (the channel source) resolve too. *)
let build_view t r =
  let st = Hashtbl.find t.states r in
  let n = G.node_count t.graph in
  (* [costs]: (u, w) -> directed cost u -> w; [rows.(v)]: v's
     neighbours in either direction, duplicates included. *)
  let costs = Hashtbl.create 64 in
  let rows = Array.make n [] in
  let edge u w c =
    Hashtbl.replace costs (u, w) c;
    rows.(u) <- w :: rows.(u);
    rows.(w) <- u :: rows.(w)
  in
  Hashtbl.iter
    (fun _ lsa -> List.iter (fun (nb, c) -> edge lsa.origin nb c) lsa.out_links)
    st.lsdb;
  List.iter
    (fun h ->
      match G.neighbors t.graph h with
      | [ rtr ] -> edge h rtr (G.cost t.graph h rtr)
      | _ -> ())
    (G.hosts t.graph);
  let rows = Array.map (List.sort_uniq compare) rows in
  let offsets = Array.make (n + 1) 0 in
  Array.iteri (fun v row -> offsets.(v + 1) <- offsets.(v) + List.length row) rows;
  let m = offsets.(n) in
  let nbrs = Array.make m 0 in
  let cost_in = Array.make m (-1) and cost_out = Array.make m (-1) in
  let cost u w = Option.value ~default:(-1) (Hashtbl.find_opt costs (u, w)) in
  Array.iteri
    (fun v row ->
      List.iteri
        (fun j w ->
          let k = offsets.(v) + j in
          nbrs.(k) <- w;
          cost_in.(k) <- cost w v;
          cost_out.(k) <- cost v w)
        row)
    rows;
  G.make_view ~generation:t.generation ~offsets ~nbrs ~cost_in ~cost_out

let cache_of t r =
  match Hashtbl.find_opt t.caches r with
  | Some c -> c
  | None ->
      let c = { view = None; trees = Hashtbl.create 16 } in
      Hashtbl.replace t.caches r c;
      c

(* Destination-rooted SPF over router [r]'s LSDB: the same kernel as
   {!Routing.Dijkstra.to_dest}, so the two agree exactly once flooding has
   converged.  Returns the in-tree toward [dest] in r's view (read for
   distances only), memoized per (router, LSDB generation). *)
let lsdb_tree_to t r dest =
  let c = cache_of t r in
  let view =
    match c.view with
    | Some v when v.G.generation = t.generation -> v
    | _ ->
        let v = build_view t r in
        c.view <- Some v;
        Hashtbl.reset c.trees;
        Obs.Metrics.hot_incr m_rebuilds;
        v
  in
  match Hashtbl.find_opt c.trees dest with
  | Some tree ->
      Obs.Metrics.hot_incr m_hits;
      tree
  | None ->
      Obs.Metrics.hot_incr m_spf;
      let tree = Routing.Dijkstra.of_view view dest in
      Hashtbl.replace c.trees dest tree;
      tree

let distance t r dest =
  let dist = Routing.Dijkstra.dist (lsdb_tree_to t r dest) in
  if dist r = max_int then None else Some (dist r)

let next_hop t r ~dest =
  if r = dest then None
  else begin
    let dist = Routing.Dijkstra.dist (lsdb_tree_to t r dest) in
    if dist r = max_int then None
    else begin
      let best = ref (-1) in
      List.iter
        (fun v ->
          if dist v < max_int && dist v + G.cost t.graph r v = dist r then
            if !best = -1 || v < !best then best := v)
        (G.neighbors t.graph r);
      if !best = -1 then None else Some !best
    end
  end

let agrees_with_table t table =
  List.for_all
    (fun r ->
      List.for_all
        (fun dest ->
          r = dest
          || next_hop t r ~dest = Routing.Table.next_hop table r ~dest)
        (List.init (G.node_count t.graph) Fun.id))
    t.routers
