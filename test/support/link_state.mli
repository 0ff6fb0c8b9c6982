(** A distributed link-state interior gateway protocol: a test
    oracle for {!Routing.Table}.

    The paper — like every multicast routing protocol it discusses —
    {e assumes} a converged unicast routing substrate ("most multicast
    routing protocols rely on the unicast infrastructure").  The
    simulator computes that substrate centrally
    ({!Routing.Table.compute}); this module builds it the way real
    networks do: every router originates link-state advertisements
    describing its outgoing directed costs, floods them hop by hop
    (newer sequence numbers displace older ones), and runs
    shortest-path first over its own link-state database.

    The test suite checks the distributed result against the
    centralized one — the evidence that simulating on
    {!Routing.Table} is sound — and the reconvergence entry points let
    cost changes be studied.

    {b SPF caching.}  Every query (next hop, distance) runs SPF over
    the router's LSDB view.  Those runs are memoized per router and
    keyed by a global LSDB generation counter, bumped whenever any
    router installs a newer advertisement: a query after new flooding
    rebuilds that router's edge index once, as a
    {!Topology.Graph.view} stamped with the LSDB generation, and runs
    {!Routing.Dijkstra.of_view} (the one SPF kernel) only for the
    destinations actually asked for.  Direct graph mutations (costs,
    link state) are observed when the owning router {!reoriginate}s —
    which is how the protocol learns of them anyway.  Cache traffic is
    accounted in {!Obs.Metrics.default} under [routing.lsdb_spf_runs],
    [routing.lsdb_cache_hits] and [routing.lsdb_index_rebuilds]. *)

type t

type stats = {
  lsas_originated : int;
  messages_sent : int;  (** flooding transmissions over links *)
  converged_at : float;  (** simulation time of the last LSDB change *)
}

val create : Eventsim.Engine.t -> Topology.Graph.t -> t
(** Routers are the graph's router nodes; hosts do not speak the IGP
    (their stub links are announced by their attachment router). *)

val start : t -> unit
(** Every router originates its LSA at the current simulation time
    and flooding begins.  Run the engine to let it converge. *)

val reoriginate : t -> int -> unit
(** Router [r] re-reads its adjacent link costs and floods a new
    sequence number — call after changing costs to study
    reconvergence. *)

val converged : t -> bool
(** True when every router's LSDB holds every other router's latest
    advertisement. *)

val stats : t -> stats

val next_hop : t -> int -> dest:int -> int option
(** Forwarding decision of router [r] computed from {e its own} LSDB
    (SPF with the same smallest-id tie-break as {!Routing.Dijkstra}).  Host
    destinations resolve through their attachment router's announced
    stub link. *)

val distance : t -> int -> int -> int option
(** LSDB shortest-path cost between two nodes as router [fst] sees
    it; [None] if unreachable in its current view. *)

val agrees_with_table : t -> Routing.Table.t -> bool
(** Every router's every next hop equals the centralized table's —
    the soundness check. *)
