(** Single-destination shortest paths (Dijkstra on a bucket queue).

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

type in_tree
(** One destination's in-tree, immutable once built.  Each node's next
    hop and distance are stored as two int32 words in one flat
    buffer, 8 bytes per node, which the GC never scans: a cached tree
    costs one word per node plus a few words of headers. *)

val to_dest : Topology.Graph.t -> int -> in_tree
(** [to_dest g d] runs Dijkstra over the reversed directed graph
    rooted at [d], on [g]'s current {!Topology.Graph.routing_view}
    (down links absent).  Raises [Invalid_argument] on a bad [d], and
    when some node's distance to [d] does not fit in int32 (exceeds
    [Int32.max_int] = 2{^31} - 1).

    The kernel is one closure-free pass over the view's flat arrays
    with a bucket queue: a ring of buckets whose width comes from the
    view's [max_cost], 1 (Dial's algorithm) for the paper's costs and
    wider for large ones.  A popped entry whose key is no longer its
    node's distance is skipped, and a node whose distance drops is
    queued again, so distances are exact for any non-negative costs.
    Next hops are picked while relaxing: a strict improvement takes
    the relaxing neighbour, an equal distance keeps the smaller id, so
    among equal-cost next hops the smallest id wins whatever the pop
    order.  {b Stub rule:} a degree-1 node other than [d] never enters
    the queue — it cannot be interior to a simple path — and gets its
    one neighbour's distance plus the link cost once the queue drains.

    {b Scratch.}  The kernel's working arrays (distances, next hops,
    the queue) live in one per-domain ({!Domain.DLS}) scratch that
    grows to the largest graph seen on that domain and is reused by
    every call, so a call allocates only the tree it returns.  Calls
    on different domains never share it. *)

val of_view : Topology.Graph.view -> int -> in_tree
(** [of_view v d] is the same kernel over an explicit view:
    {!Table.in_tree} passes the graph's current one, and the
    link-state test oracle builds one per router LSDB generation.
    [to_dest g d] is [of_view (Topology.Graph.routing_view g) d]. *)

(** {1 Reading a tree}

    Every reader raises [Invalid_argument] for a node outside the
    tree's graph. *)

val next : in_tree -> int -> int
(** [next t u] is [u]'s next hop toward [dest t]; [-1] when [u] is the
    destination or cannot reach it.  Allocates nothing: the forwarding
    fast path. *)

val dist : in_tree -> int -> int
(** [dist t u] is the cost of the cheapest path [u -> dest t];
    [max_int] when unreachable. *)

val reachable : in_tree -> int -> bool
val distance : in_tree -> int -> int
(** Raises [Invalid_argument] if unreachable. *)

val next_hop : in_tree -> int -> int option
(** [next_hop t u] is [None] when [u] is the destination or [d] is
    unreachable from [u]. *)

val next_hops_changed : in_tree -> in_tree -> int
(** [next_hops_changed a b] is the number of nodes whose next hop
    differs between two trees of the same graph (a reconvergence's
    change count); [0] at once when the trees are byte-equal.  Raises
    [Invalid_argument] for trees of different node counts. *)

val path : in_tree -> int -> int list
(** [path t u] is the node sequence [u; ...; dest].  Raises
    [Invalid_argument] if unreachable. *)
