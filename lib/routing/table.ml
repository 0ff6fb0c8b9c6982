(* Lazy, memoized forwarding plane.

   An in-tree is computed the first time its destination is queried
   and cached until invalidated.  Invalidation is the reconvergence
   primitive: [invalidate_edge] inspects the cached trees and dirties
   only the destinations whose tree actually crossed the changed link
   — exact for links that got worse (cost increase, link down), which
   is the common fault-injection case — while [invalidate_all] covers
   changes that can only improve routes (cost decrease, link restore),
   where any destination might want the new edge. *)

(* Always-on cache accounting: the scaling experiments read these to
   show how much SPF work laziness avoids.  Each table binds them when
   it is computed (the owner contract of {!Obs.Metrics.bind}). *)
let m_spf = Obs.Metrics.hot_counter "routing.spf_runs"
let m_hits = Obs.Metrics.hot_counter "routing.cache_hits"
let m_invalidated = Obs.Metrics.hot_counter "routing.invalidations"

type t = {
  graph : Topology.Graph.t;
  trees : Dijkstra.in_tree option array;
  spf_runs : Obs.Metrics.counter;
  cache_hits : Obs.Metrics.counter;
  invalidations : Obs.Metrics.counter;
}

let compute g =
  {
    graph = g;
    trees = Array.make (Topology.Graph.node_count g) None;
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
      let tree = Dijkstra.of_view (Topology.Graph.routing_view t.graph) d in
      t.trees.(d) <- Some tree;
      tree

let cached t d = d >= 0 && d < Array.length t.trees && t.trees.(d) <> None

let force_all t =
  Array.iteri (fun d _ -> ignore (in_tree t d)) t.trees

let invalidate_dest t d =
  if d < 0 || d >= Array.length t.trees then
    invalid_arg "Table.invalidate_dest: bad destination";
  if t.trees.(d) <> None then begin
    Obs.Metrics.incr t.invalidations;
    t.trees.(d) <- None
  end

let invalidate_all t =
  Array.iteri
    (fun d tree ->
      if tree <> None then begin
        Obs.Metrics.incr t.invalidations;
        t.trees.(d) <- None
      end)
    t.trees

let using_edge t u v =
  let n = Array.length t.trees in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Table.using_edge: bad endpoint";
  let used = ref [] in
  for d = n - 1 downto 0 do
    match t.trees.(d) with
    | Some tree ->
        if Dijkstra.next tree u = v || Dijkstra.next tree v = u then
          used := d :: !used
    | None -> ()
  done;
  !used

let invalidate_edge t u v =
  let dirty = using_edge t u v in
  List.iter (invalidate_dest t) dirty;
  dirty

(* A pointer copy: the trees themselves are immutable and shared. *)
type saved = Dijkstra.in_tree option array

let save t = Array.copy t.trees

let reinstate t (s : saved) =
  if Array.length s <> Array.length t.trees then
    invalid_arg "Table.reinstate: saved from a different table";
  Array.blit s 0 t.trees 0 (Array.length s)

let next_hop t u ~dest = Dijkstra.next_hop (in_tree t dest) u

let distance t u v = Dijkstra.distance (in_tree t v) u

let reachable t u v = Dijkstra.reachable (in_tree t v) u

let path t u v = Dijkstra.path (in_tree t v) u
