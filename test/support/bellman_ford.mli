(** Bellman–Ford single-destination distances.

    Used as an independent cross-check of {!Routing.Dijkstra} in the test
    suite (different algorithm, same answer), and as the model of a
    distance-vector IGP: {!iterations} exposes how many rounds of
    neighbor exchange a DV protocol would need to converge. *)

type result = {
  dest : int;
  dist : int array;  (** [max_int] when unreachable *)
  iterations : int;  (** rounds until fixpoint *)
}

val to_dest : Topology.Graph.t -> int -> result
(** Distances of every node to [dest] over directed costs.  Links whose
    {!Topology.Graph.link_up} flag is false are treated as absent, as
    in {!Routing.Dijkstra.to_dest}. *)
