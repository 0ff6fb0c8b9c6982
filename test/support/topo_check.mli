(** Whole-graph and path properties the topology and routing tests
    check, computed over {!Topology.Graph}'s public accessors. *)

val is_connected : Topology.Graph.t -> bool
(** True iff every node is reachable from node 0 ignoring direction. *)

val hosts_of_router : Topology.Graph.t -> int -> int list
(** Hosts attached to the given router. *)

val down_links : Topology.Graph.t -> (int * int) list
(** Currently failed links as [(u, v)] endpoint pairs, link order. *)

val asymmetric_link_fraction : Topology.Graph.t -> float
(** Fraction of links whose two directed costs differ. *)

val path_cost : Topology.Graph.t -> int list -> int
(** Sum of directed link costs along the path. *)

val path_valid : Topology.Graph.t -> int list -> bool
(** True iff consecutive nodes are adjacent and no node repeats. *)
