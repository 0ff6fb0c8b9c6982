(** HBH — converged-tree model.

    The protocol's fusion mechanism (Section 3) guarantees that, once
    soft state stabilizes, every receiver is served along the
    {e forward} shortest path from the source and every directed link
    of the union of those paths carries exactly one copy of each data
    packet: where two receivers' paths share a link, a branching node
    upstream of the shared segment owns both and duplicates only
    after it.  The converged tree is therefore independent of join
    order — unlike REUNITE's — and this module computes it directly
    from the forwarding plane.

    [build_constrained] honours routers flagged non-multicast-capable
    ({!Topology.Graph.multicast_capable}): a divergence at such a
    router cannot duplicate there, so the upstream branching node
    emits one copy per sub-branch and the links down to the
    divergence carry several copies — the deployment-scenario cost
    the paper motivates but does not plot. *)

val build :
  Routing.Table.t -> source:int -> receivers:int list -> Mcast.Distribution.t
(** Ideal HBH (all routers capable): one copy per distinct directed
    link of the union of forward paths; per-receiver delay is the
    forward shortest-path delay.  Raises [Invalid_argument] if a
    receiver is unreachable. *)

val build_constrained :
  Routing.Table.t -> source:int -> receivers:int list -> Mcast.Distribution.t
(** Like {!build} but duplication may only happen at
    multicast-capable routers (and the source).  Equals {!build} when
    every router is capable and no two forward paths merge after
    diverging. *)

val tree_links :
  Routing.Table.t -> source:int -> receivers:int list -> (int * int) list
(** Distinct directed links of the forward-path union (the ideal HBH
    tree), lexicographic. *)

val state :
  Routing.Table.t -> source:int -> receivers:int list -> Mcast.Metrics.state
(** Minimal converged footprint: an MFT entry per branch at each
    branching router (merge routers included), an MCT entry at every
    other on-tree router. *)

val data_path : Routing.Table.t -> source:int -> int -> int list
(** The forward path a member's data follows — always the shortest
    path, HBH's headline property. *)
