(** Per-run experiment setup, following the paper's Section 4.1:
    costs are redrawn uniformly from [1, 10] in each direction every
    run, the source is fixed, and N receivers are drawn uniformly
    from the candidate hosts. *)

val randomize : Stats.Rng.t -> Topology.Graph.t -> unit
(** Redraw every directed link cost from the paper's [1, 10] range
    (delays follow costs). *)

val pick_receivers : Stats.Rng.t -> candidates:int list -> n:int -> int list
(** [n] distinct receivers, uniformly, in random order (the order is
    REUNITE's join order).  Raises [Invalid_argument] if
    [n > List.length candidates]. *)

type t = {
  table : Routing.Table.t;  (** forwarding plane for this run's costs *)
  source : int;
  receivers : int list;  (** in join order *)
}

val make :
  ?symmetric:bool ->
  Stats.Rng.t ->
  Topology.Graph.t ->
  source:int ->
  candidates:int list ->
  n:int ->
  t
(** Draw one run: randomize costs, recompute routing, sample
    receivers.  [symmetric] (default false) forces both directed
    costs of every link equal after the draw — the
    asymmetry-isolation ablation. *)
