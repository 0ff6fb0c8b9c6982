(** Seeded topology generators.

    All generators produce router-only graphs with unit costs; use
    {!Builder.attach_host_per_router} (via [~hosts:true], the
    default) to add the paper's one-potential-receiver-per-router
    hosts, and {!Graph.randomize_costs} to draw the per-direction
    link costs.

    The paper's second topology is [random_connected ~n:50] with
    average router degree 8.6. *)

val random_connected :
  ?hosts:bool -> Stats.Rng.t -> n:int -> avg_degree:float -> Graph.t
(** Connected random graph on [n] routers with approximately the
    requested average degree: a uniform random spanning tree
    guarantees connectivity, then the remaining link budget
    [n * avg_degree / 2 - (n - 1)] is spent on distinct random pairs.
    Raises [Invalid_argument] if the degree budget is below the tree
    (< 2(n-1)/n) or above the complete graph. *)

val waxman :
  ?hosts:bool ->
  ?alpha:float ->
  ?beta:float ->
  Stats.Rng.t ->
  n:int ->
  Graph.t
(** Waxman (1988) geometric random graph: routers at uniform points
    of the unit square, a link [u-v] with probability
    [alpha * exp (-d(u,v) / (beta * sqrt 2))].  Extra spanning-tree
    links guarantee connectivity.  Defaults: [alpha = 0.25],
    [beta = 0.4]. *)

val power_law :
  ?hosts:bool -> ?m:int -> Stats.Rng.t -> n:int -> Graph.t
(** Barabási–Albert preferential attachment: a seed clique of [m + 1]
    routers, then each arrival links to [m] distinct
    degree-proportional targets.  Connected by construction, heavy
    degree tail (the AS-graph shape), O(n * m) build — meant for the
    internet-scale workloads (n >= 5000).  Default [m = 2].  Raises
    [Invalid_argument] unless [n > m >= 1]. *)

val as_hierarchy : ?hosts:bool -> Stats.Rng.t -> n:int -> Graph.t
(** Three-tier AS-like hierarchy: an 8-router backbone ring with
    cross-chords, 32 regionals each multihomed to two core routers
    (plus sparse peering), and the remaining [n - 40] stub routers
    single- or dual-homed to regionals.  Connected by construction.
    Raises [Invalid_argument] when [n < 41]. *)

val grid : ?hosts:bool -> rows:int -> cols:int -> unit -> Graph.t
(** Rectangular mesh. *)

val ring : ?hosts:bool -> n:int -> unit -> Graph.t

val star : ?hosts:bool -> spokes:int -> unit -> Graph.t
(** Router 0 is the hub. *)

val line : ?hosts:bool -> n:int -> unit -> Graph.t
(** Simple path, the worst case for multicast gain. *)

val balanced_tree : ?hosts:bool -> depth:int -> fanout:int -> unit -> Graph.t
(** Complete [fanout]-ary tree of the given depth (depth 0 is a single
    router). *)

val full_mesh : ?hosts:bool -> n:int -> unit -> Graph.t

val dumbbell : ?hosts:bool -> left:int -> right:int -> unit -> Graph.t
(** Two stars joined by one bottleneck link between their hubs —
    stresses link-stress metrics. *)

val transit_stub :
  ?hosts:bool ->
  Stats.Rng.t ->
  transit:int ->
  stubs_per_transit:int ->
  stub_size:int ->
  Graph.t
(** GT-ITM-flavoured hierarchy: a ring of transit routers, each with
    [stubs_per_transit] stub domains of [stub_size] routers (each stub
    is a random connected subgraph hanging off its transit router). *)
