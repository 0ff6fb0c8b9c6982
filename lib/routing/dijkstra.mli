(** Single-destination shortest paths (Dijkstra).

    Unicast forwarding in the simulator is destination-rooted: for a
    destination [d] we compute, at every node [u], the distance of the
    cheapest directed path [u -> ... -> d] and the next hop on one
    such path.  Following [next_hop (.) d] hop by hop from any node
    therefore walks a loop-free shortest path to [d] — exactly how a
    converged IGP forwards — and, crucially for reproducing the
    paper, the path from [a] to [b] and the path from [b] to [a] are
    computed over {e different} directed costs and may differ (route
    asymmetry).

    Determinism: distances are unique; among equal-cost next hops the
    smallest node id is chosen, so the whole forwarding plane is a
    deterministic function of the topology. *)

type in_tree = private {
  dest : int;
  dist : int array;  (** [dist.(u)] = cost of cheapest path u->dest; [max_int] if unreachable *)
  next : int array;  (** [next.(u)] = next hop from u toward dest; [-1] at dest or unreachable *)
}

val to_dest : Topology.Graph.t -> int -> in_tree
(** [to_dest g d] runs Dijkstra over the reversed directed graph
    rooted at [d], on [g]'s current {!Topology.Graph.routing_view}
    (down links absent).  Raises [Invalid_argument] on a bad [d].

    The kernel is one closure-free pass over the view's flat arrays
    with an indexed (decrease-key) binary heap.  {b Stub rule:} a
    degree-1 node other than [d] never enters the heap — it cannot be
    interior to a simple path — and gets its one neighbour's distance
    plus the link cost once the heap drains.  Distances are unique
    and next hops come from a separate smallest-id pass, so neither
    the heap nor the stub rule changes any tie-break. *)

val of_view : Topology.Graph.view -> int -> in_tree
(** [of_view v d] is the same kernel over an explicit view, for
    callers with their own picture of the topology (the link-state
    test oracle builds one per router LSDB generation).  [to_dest g d]
    is [of_view (Topology.Graph.routing_view g) d]. *)

val reachable : in_tree -> int -> bool
val distance : in_tree -> int -> int
(** Raises [Invalid_argument] if unreachable. *)

val next_hop : in_tree -> int -> int option
(** [next_hop t u] is [None] when [u] is the destination or [d] is
    unreachable from [u]. *)

val path : in_tree -> int -> int list
(** [path t u] is the node sequence [u; ...; dest].  Raises
    [Invalid_argument] if unreachable. *)
