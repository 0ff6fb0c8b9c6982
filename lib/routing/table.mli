(** All-pairs unicast forwarding state, computed lazily: one
    {!Dijkstra.in_tree} per destination, built on first query and
    memoized.  Queries against a cached destination are array reads;
    the SPF cost is paid once per (destination, invalidation).

    {b Cache semantics.}  Each cached in-tree is a snapshot of the
    graph {e at the time it was computed}.  Mutating the graph (costs,
    link or node state) does not touch existing trees — that staleness
    is exactly the paper's "routing has not reconverged yet" window —
    but a destination queried for the {e first} time after a mutation
    sees the current graph.  The graph's generation guarantees both
    halves: every routing mutator bumps it, SPF runs on a
    {!Topology.Graph.routing_view} rebuilt whenever the generation is
    stale, and a view (like the in-tree built from it) is never
    modified once built.  Callers model reconvergence by
    invalidating:

    - {!invalidate_edge} after a change that can only make the link
      {e worse} (cost increase, link failure): it dirties only the
      destinations whose cached tree actually crossed the link, which
      is exact — an in-tree not using a worsened link is still optimal
      and keeps its tie-breaks.
    - {!invalidate_all} after a change that can {e improve} a link
      (cost decrease, link restore) or any bulk cost redraw: every
      destination might want the new edge, so everything is dirtied.

    Cache traffic is accounted under [routing.spf_runs],
    [routing.cache_hits] and [routing.invalidations] in the registry
    that was {!Obs.Metrics.default} when the table was computed. *)

type t

val compute : Topology.Graph.t -> t
(** O(nodes) setup; no shortest-path work until the first query.
    Links whose {!Topology.Graph.link_up} flag is false are treated as
    absent when a tree is (re)computed. *)

val force_all : t -> unit
(** Materialize every in-tree now — the eager baseline the scaling
    benchmarks compare against, and a way to pre-pay all SPF cost
    before a latency-sensitive phase. *)

val invalidate_all : t -> unit
(** Drop every cached tree.  Required after changes that can improve
    a route: cost decreases, link restores, bulk cost redraws. *)

val invalidate_dest : t -> int -> unit
(** Drop one destination's cached tree. *)

val invalidate_edge : t -> int -> int -> int list
(** [invalidate_edge t u v] drops exactly the cached trees that cross
    the link joining [u] and [v] (in either direction) and returns the
    destinations dropped.  Sound only for changes that made the link
    worse (cost increase or failure); see the cache semantics above.
    Destinations never computed are unaffected — they rebuild from the
    current graph on demand. *)

val using_edge : t -> int -> int -> int list
(** The destinations whose {e cached} tree crosses the link joining
    [u] and [v], without invalidating — lets a caller snapshot the old
    next hops (e.g. to count reconvergence changes) before dropping
    them. *)

val cached : t -> int -> bool
(** Whether a destination's in-tree is currently materialized. *)

val graph : t -> Topology.Graph.t

(** {1 Checkpoint} *)

type saved
(** The set of cached in-trees at one instant. *)

val save : t -> saved
(** A copy of the cache's slots, O(nodes) pointer copies: the trees
    are immutable and shared with the live table. *)

val reinstate : t -> saved -> unit
(** Make the cache hold exactly the saved trees again.  Sound only
    when the graph's routing state is back to what it was at {!save}
    (as after {!Topology.Graph.restore_links} of links saved at the
    same instant) and no link change was pending then: every saved
    tree is then what a fresh SPF would build.
    Raises [Invalid_argument] for a [saved] of another table's size. *)

val in_tree : t -> int -> Dijkstra.in_tree
(** The in-tree of a destination (computing and caching it if
    needed). *)

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
