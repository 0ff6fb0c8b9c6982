(** Network topology: an undirected multigraph of routers and hosts
    whose links carry an independent integer cost {e in each
    direction}.  A directed link's propagation delay is its cost, in
    the paper's time units.

    The per-direction costs are the source of the unicast routing
    asymmetry that the HBH paper studies: the shortest path from [a]
    to [b] may differ from the reverse of the shortest path from [b]
    to [a] because [cost u v <> cost v u] in general.

    Nodes are dense integer ids [0 .. node_count - 1].  Each node is a
    {!kind} [Router] or [Host]; hosts attach to exactly one router and
    model the paper's "potential receivers" (nodes 18..35 of the ISP
    topology).  Routers carry a [multicast_capable] flag so that
    unicast-only clouds can be modelled. *)

type kind = Router | Host

type t
(** Immutable topology structure.  Link costs are mutable
    so that a sweep can re-randomize costs without rebuilding the
    graph (the paper redraws costs every run). *)

type link = private {
  id : int;  (** dense link id, [0 .. link_count - 1] *)
  u : int;
  v : int;
  mutable cost_uv : int;
      (** routing metric and propagation delay in direction [u -> v] *)
  mutable cost_vu : int;
      (** routing metric and propagation delay in direction [v -> u] *)
  mutable up : bool;  (** operational state; failed links carry nothing *)
}

(** {1 Accessors} *)

val node_count : t -> int
val link_count : t -> int
val kind : t -> int -> kind
val is_router : t -> int -> bool
val is_host : t -> int -> bool
val routers : t -> int list
val hosts : t -> int list

val multicast_capable : t -> int -> bool
(** Hosts are always considered capable (they terminate channels). *)

val multicast_router : t -> int -> bool
(** A multicast-capable router: a node where a protocol's router agent
    runs. *)

val set_multicast_capable : t -> int -> bool -> unit
(** Only meaningful on routers. *)

val neighbors : t -> int -> int list
(** Adjacent node ids (both routers and hosts). *)

val adjacency : t -> int -> (int * int) list
(** [adjacency g u] is [u]'s [(neighbour, link id)] list in ascending
    neighbour order, down links included.  It is the graph's own
    immutable structure, returned without copying: read each edge's
    state and directed cost from [link g id].  Per-edge loops walk it
    instead of {!neighbors} + {!link_up} + {!cost}, which allocate and
    rescan the list per edge; shortest-path routing reads the flatter
    {!routing_view} instead. *)

val degree : t -> int -> int

val links : t -> link list
val link : t -> int -> link

val connected : t -> int -> int -> bool
(** [connected g u v] is true iff some link joins [u] and [v]. *)

val link_id : t -> int -> int -> int
(** [link_id g u v] is the id of the link joining [u] and [v], or [-1]
    if there is none.  A walk of [u]'s adjacency that allocates
    nothing: a per-hop caller reads [link g id] for the directed
    delay, cost and state with this one lookup. *)

val cost : t -> int -> int -> int
(** [cost g u v] is the directed routing metric of the [u -> v]
    traversal of the link joining them.  Raises [Invalid_argument] if
    no such link exists. *)

val delay : t -> int -> int -> float
(** Directed propagation delay: the directed {!cost}, as a float. *)

val set_cost : t -> int -> int -> int -> unit
(** [set_cost g u v c] sets the metric (and so the delay) of
    direction [u -> v].  Raises
    [Invalid_argument] when [c < 1]: a link of cost 0 both ways lets
    tied nodes pick each other as next hop. *)

val link_up : t -> int -> int -> bool
(** Operational state of the link joining [u] and [v] (both
    directions fail together).  Raises [Invalid_argument] if no such
    link exists. *)

val set_link_up : t -> int -> int -> bool -> unit
(** Fail or restore a link.  Routing treats down links as absent in
    every in-tree it computes afterwards ({!Routing.Table.set_link_up}
    records the change for the table's reconvergence); the packet
    simulator drops traffic forwarded onto one. *)

val router_of_host : t -> int -> int
(** The unique router a host attaches to.  Raises [Invalid_argument]
    on a router id or an unattached host. *)

(** {1 Whole-graph operations} *)

val randomize_costs : t -> Stats.Rng.t -> lo:int -> hi:int -> unit
(** Draw every directed cost independently and uniformly from
    [\[lo, hi\]] (a delay in the paper's time units).  Raises
    [Invalid_argument] when [lo < 1]. *)

val symmetrize_costs : t -> unit
(** Force [cost v u := cost u v] on every link —
    the symmetric-routing ablation. *)

val copy : t -> t
(** Deep copy (independent link records and capability flags).  The
    copy starts a fresh generation with a stale view. *)

type link_state
(** The graph's full mutable footprint: per-link costs and
    operational flags, plus the multicast-capability flags. *)

val save_links : t -> link_state

val restore_links : t -> link_state -> unit
(** Restore a {!save_links} checkpoint onto the same graph.  The
    capability flags are always copied back; the links are rewritten
    (bumping the generation) only when the graph has left the saved
    generation — at the same generation no link mutator has run, so
    the links, the routing view and every in-tree built from it are
    already the saved ones.  Raises [Invalid_argument] if the
    snapshot's shape does not match. *)

val generation : t -> int
(** The current generation (see the generation rule below). *)

(** {1 Routing view}

    A flat, immutable snapshot of everything shortest-path routing
    reads, in compressed-sparse-row (CSR) form: node [v]'s entries are
    the slots [offsets.(v) .. offsets.(v+1) - 1] of the other arrays,
    one per neighbour, in ascending neighbour order.

    {b Generation rule.}  The graph carries a generation counter,
    0 after {!make} and {!copy}.  Every mutator that can change a route
    bumps it: {!set_cost}, {!set_link_up}, {!randomize_costs},
    {!symmetrize_costs} and a {!restore_links} that rewrites links.
    {!set_multicast_capable} does not, because routing does not read
    it.  {!routing_view} rebuilds the view only when its generation is
    stale, so a view is always the current graph's, and a view already
    handed out never changes. *)

type view = private {
  generation : int;  (** the graph generation the view was built at *)
  offsets : int array;  (** [node_count + 1] CSR row starts *)
  nbrs : int array;  (** neighbour id per slot, ascending per node *)
  cost_in : int array;
      (** slot [k] of node [v] with neighbour [w]: the directed cost
          [w -> v], or [-1] if the link is down *)
  cost_out : int array;  (** the directed cost [v -> w], or [-1] if down *)
  stub : bool array;  (** node has exactly one neighbour (degree 1) *)
  max_cost : int;
      (** the largest entry of [cost_in], 0 when every direction is
          down: the bucket width of the SPF kernel's queue *)
}

val routing_view : t -> view
(** The view of the current generation, rebuilt (O(nodes + links),
    one flat pass over the slots into fresh arrays published with one
    [Atomic.set]) if the cached one is stale.  Safe to call from
    several domains sharing a graph that none of them mutates. *)

val make_view :
  generation:int ->
  offsets:int array ->
  nbrs:int array ->
  cost_in:int array ->
  cost_out:int array ->
  view
(** A view over some other directed graph (a router's link-state
    database, say), with the stub flags derived from [offsets] and
    [max_cost] from [cost_in].  Costs
    must be non-negative, [-1] marking an absent direction.  Raises
    [Invalid_argument] on ragged arrays. *)

val pp : Format.formatter -> t -> unit
(** Summary line: node/link counts and degree. *)

(** {1 Construction}

    Low-level; prefer {!Builder}. *)

val make :
  kinds:kind array ->
  links:(int * int * int * int) list ->
  t
(** [make ~kinds ~links] builds a topology.  Each link is
    [(u, v, cost_uv, cost_vu)].  Raises
    [Invalid_argument] on out-of-range endpoints, self-loops,
    duplicate links, a cost below 1, or a host with other than exactly
    one link. *)
