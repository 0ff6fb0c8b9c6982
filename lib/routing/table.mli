(** All-pairs unicast forwarding state, computed lazily: one
    {!Dijkstra.in_tree} per destination, built on first query and
    memoized.  Queries against a cached destination are array reads;
    the SPF cost is paid once per (destination, reconvergence).

    {b Cache semantics.}  Each cached in-tree is a snapshot of the
    graph {e at the time it was computed}.  Mutating the graph (costs,
    link or node state) does not touch existing trees — that staleness
    is exactly the paper's "routing has not reconverged yet" window —
    but a destination queried for the {e first} time after a mutation
    sees the current graph.  The graph's generation guarantees both
    halves: every routing mutator bumps it, SPF runs on a
    {!Topology.Graph.routing_view} rebuilt whenever the generation is
    stale, and a view (like the in-tree built from it) is never
    modified once built.

    {b Reconvergence.}  The table owns the one rule for leaving that
    window.  {!set_link_up} records a link change after freezing every
    route against the pre-change graph; {!reconverge} drops the cached
    trees the changes since the last call may have made wrong and
    recomputes them.

    Cache traffic is accounted under [routing.spf_runs],
    [routing.cache_hits] and [routing.invalidations] (one per tree a
    {!reconverge} drops) in the registry that was
    {!Obs.Metrics.default} when the table was computed. *)

type t

val compute : Topology.Graph.t -> t
(** O(nodes) setup; no shortest-path work until the first query.
    Links whose {!Topology.Graph.link_up} flag is false are treated as
    absent when a tree is (re)computed. *)

val set_link_up : t -> int -> int -> bool -> unit
(** [set_link_up t u v up] fails ([false]) or restores ([true]) the
    link joining [u] and [v] ({!Topology.Graph.set_link_up}) and
    records the change for {!reconverge}.  Every destination's in-tree
    is first materialized against the pre-change graph (one SPF run
    per destination not yet cached), so forwarding keeps the stale
    next hops toward every destination, including ones first looked up
    after the change, until {!reconverge}. *)

val reconverge : t -> int
(** Bring the cache onto the current graph.  When every graph change
    since the last call (or {!compute}, or {!reinstate}) was a link
    failure made through {!set_link_up}, it drops exactly the cached
    trees that crossed a failed link, in either direction; after
    anything else — a restore, a cost change made directly on the
    graph, or no change at all — it drops every cached tree.  It then
    recomputes the dropped trees, in ascending destination order, and
    returns the number of (node, destination) next hops that differ
    between each dropped tree and its recomputation
    ({!Dijkstra.next_hops_changed}).  A tree kept after failures is
    still optimal and unchanged, so the count covers every cached
    destination — after a {!set_link_up}, every destination. *)

val graph : t -> Topology.Graph.t

(** {1 Checkpoint} *)

type saved
(** The set of cached in-trees at one instant. *)

val save : t -> saved
(** A copy of the cache's slots, O(nodes) pointer copies: the trees
    are immutable and shared with the live table.  Raises
    [Invalid_argument] while a {!set_link_up} change awaits
    {!reconverge}: the stale routes of that window depend on a graph a
    restore could not reproduce. *)

val reinstate : t -> saved -> unit
(** Make the cache hold exactly the saved trees again.  Sound only
    when the graph's routing state is back to what it was at {!save}
    (as after {!Topology.Graph.restore_links} of links saved at the
    same instant): every saved tree is then what a fresh SPF would
    build, so any change recorded since {!save} is cleared.
    Raises [Invalid_argument] for a [saved] of another table's size. *)

val in_tree : t -> int -> Dijkstra.in_tree
(** The in-tree of a destination (computing and caching it if
    needed).  A miss on a stub (a degree-1 node, such as a host) whose
    one neighbour's tree is cached, while the table is converged at the
    graph's current generation (no {!set_link_up} change awaiting
    {!reconverge}, no change made directly on the graph since), extends
    that tree by the access hop ({!Dijkstra.of_stub}, O(nodes), the
    same tree the kernel builds); every other miss runs the kernel.
    Either way a miss counts one [routing.spf_runs], and reading the
    neighbour's tree counts no [routing.cache_hits].  So a fill in
    ascending destination order, where each host follows its router,
    runs the kernel once per router only. *)

val next_hop : t -> int -> dest:int -> int option
(** [next_hop t u ~dest] is the forwarding decision of node [u] for a
    packet addressed to [dest]; [None] when [u = dest] or [dest] is
    unreachable. *)

val distance : t -> int -> int -> int
(** [distance t u v] is the directed shortest-path cost [u -> v].
    Raises [Invalid_argument] if unreachable. *)

val reachable : t -> int -> int -> bool

val path : t -> int -> int -> int list
(** [path t u v] is the hop-by-hop route [u; ...; v] that packets
    from [u] to [v] actually take.  Raises if unreachable. *)
