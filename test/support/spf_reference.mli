(** The binary-heap SPF kernel {!Routing.Dijkstra} ran before its
    bucket queue: an indexed (decrease-key) binary heap over the
    routing view, the stub rule, then a separate pass that picks each
    node's smallest-id tied next hop.  test_routing checks the bucket
    queue's every tree against it. *)

type in_tree

val of_view : Topology.Graph.view -> int -> in_tree
(** [of_view v d] is [d]'s in-tree over [v].  Raises
    [Invalid_argument] on a bad [d] and on a distance past
    [Int32.max_int], as {!Routing.Dijkstra.of_view} does. *)

val next : in_tree -> int -> int
(** The next hop toward the destination; [-1] at the destination and
    when unreachable. *)

val dist : in_tree -> int -> int
(** The distance to the destination; [max_int] when unreachable. *)
