(* Lazy, memoized forwarding plane with one reconvergence rule.

   An in-tree is computed the first time its destination is queried
   and cached until a {!reconverge} drops it.  A link change made
   through {!set_link_up} first freezes every route against the
   pre-change graph; {!reconverge} then drops only the trees that
   crossed a failed link when failures are all that changed — exact,
   since a tree not using a worsened link is still optimal and keeps
   its tie-breaks — and every cached tree otherwise, since a restore
   or a cost change can improve any route. *)

(* A miss on a stub destination extends its neighbour's cached tree by
   the access hop ({!Dijkstra.of_stub}) instead of running the kernel,
   but only while the table is converged at the graph's current
   generation: then every cached tree is what the kernel would build on
   the current graph.  A pending link change, or a change made directly
   on the graph since, leaves cached trees that the current graph no
   longer yields, so those misses run the kernel.

   Always-on cache accounting.  Each table binds these when it is
   computed (the owner contract of {!Obs.Metrics.bind}). *)
let m_spf = Obs.Metrics.hot_counter "routing.spf_runs"
let m_hits = Obs.Metrics.hot_counter "routing.cache_hits"
let m_invalidated = Obs.Metrics.hot_counter "routing.invalidations"

(* What changed since the cache last converged.  [Converged g] and
   [Failed (_, g)] hold the graph generation they account for: a graph
   found at another generation was also changed behind the table's
   back, which only a full reconvergence covers. *)
type pending =
  | Converged of int
  | Failed of (int * int) list * int  (* failures only, newest first *)
  | Changed

type t = {
  graph : Topology.Graph.t;
  trees : Dijkstra.in_tree option array;
  mutable pending : pending;
  spf_runs : Obs.Metrics.counter;
  cache_hits : Obs.Metrics.counter;
  invalidations : Obs.Metrics.counter;
}

let compute g =
  {
    graph = g;
    trees = Array.make (Topology.Graph.node_count g) None;
    pending = Converged (Topology.Graph.generation g);
    spf_runs = Obs.Metrics.bind m_spf;
    cache_hits = Obs.Metrics.bind m_hits;
    invalidations = Obs.Metrics.bind m_invalidated;
  }

let graph t = t.graph

let in_tree t d =
  if d < 0 || d >= Array.length t.trees then
    invalid_arg "Table.in_tree: bad destination";
  match t.trees.(d) with
  | Some tree ->
      Obs.Metrics.incr t.cache_hits;
      tree
  | None ->
      Obs.Metrics.incr t.spf_runs;
      let view = Topology.Graph.routing_view t.graph in
      let tree =
        match t.pending with
        | Converged g when g = view.generation && view.stub.(d) -> (
            match t.trees.(view.nbrs.(view.offsets.(d))) with
            | Some tw -> Dijkstra.of_stub view d tw
            | None -> Dijkstra.of_view view d)
        | _ -> Dijkstra.of_view view d
      in
      t.trees.(d) <- Some tree;
      tree

let set_link_up t u v up =
  Array.iteri (fun d _ -> ignore (in_tree t d)) t.trees;
  let before = Topology.Graph.generation t.graph in
  Topology.Graph.set_link_up t.graph u v up;
  let after = Topology.Graph.generation t.graph in
  t.pending <-
    (match t.pending with
    | Converged g when (not up) && g = before -> Failed ([ (u, v) ], after)
    | Failed (links, g) when (not up) && g = before ->
        Failed ((u, v) :: links, after)
    | _ -> Changed)

let crosses tree (u, v) = Dijkstra.next tree u = v || Dijkstra.next tree v = u

let reconverge t =
  let dropped =
    match t.pending with
    | Failed (links, g) when g = Topology.Graph.generation t.graph ->
        fun tree -> List.exists (crosses tree) links
    | _ -> fun _ -> true
  in
  (* Each old tree is read through [in_tree], so the read counts in
     [routing.cache_hits] as any other lookup does. *)
  let before =
    List.filter_map
      (fun d ->
        match t.trees.(d) with
        | Some tree when dropped tree -> Some (d, in_tree t d)
        | _ -> None)
      (List.init (Array.length t.trees) Fun.id)
  in
  List.iter
    (fun (d, _) ->
      Obs.Metrics.incr t.invalidations;
      t.trees.(d) <- None)
    before;
  t.pending <- Converged (Topology.Graph.generation t.graph);
  (* An in-tree is immutable once built, so the old trees stay valid
     after the cache drops them. *)
  List.fold_left
    (fun changed (d, old) ->
      changed + Dijkstra.next_hops_changed old (in_tree t d))
    0 before

(* A pointer copy: the trees themselves are immutable and shared. *)
type saved = Dijkstra.in_tree option array

let save t =
  match t.pending with
  | Converged _ -> Array.copy t.trees
  | Failed _ | Changed ->
      invalid_arg "Table.save: pending link change; reconverge first"

let reinstate t (s : saved) =
  if Array.length s <> Array.length t.trees then
    invalid_arg "Table.reinstate: saved from a different table";
  Array.blit s 0 t.trees 0 (Array.length s);
  t.pending <- Converged (Topology.Graph.generation t.graph)

let next_hop t u ~dest = Dijkstra.next_hop (in_tree t dest) u

let distance t u v = Dijkstra.distance (in_tree t v) u

let reachable t u v = Dijkstra.reachable (in_tree t v) u

let path t u v = Dijkstra.path (in_tree t v) u
