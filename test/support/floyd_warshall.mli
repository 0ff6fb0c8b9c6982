(** Floyd–Warshall all-pairs distances — a third independent
    implementation used to cross-validate {!Routing.Table} in tests. *)

type t

val compute : Topology.Graph.t -> t
(** Down links (see {!Topology.Graph.link_up}) are treated as absent,
    as in {!Routing.Table}. *)

val distance : t -> int -> int -> int
(** [distance t u v] is the directed shortest-path cost [u -> v];
    [max_int] when unreachable. *)
