(** Operations on hop-by-hop paths (node sequences). *)

val links : int list -> (int * int) list
(** [(u, v)] directed link pairs along the path. *)

val delay : Topology.Graph.t -> int list -> float
(** Sum of directed link delays along the path, i.e. the one-way
    latency a packet experiences travelling it. *)

val hops : int list -> int
(** Number of links. *)

val pp : Format.formatter -> int list -> unit
(** Renders as [3 -> 7 -> 12]. *)
