(** The paper's concluding claim, tested directly: "The advantage of
    HBH grows with larger and more connected networks."

    Two sweeps over random topologies, measuring HBH's average
    advantage over REUNITE (percent, as in {!Figures.headline}) while
    holding the group fraction constant:

    - {!connectivity}: 50 routers, average degree swept — the
      "more connected" axis (the paper's two data points are degree
      3.3 and 8.6).
    - {!size}: average degree fixed at 4, router count swept — the
      "larger" axis.

    Every sweep resets the default metrics registry on entry, so its
    snapshot stands alone. *)

type point = {
  x : int;  (** degree×10 for connectivity, router count for size *)
  cost_advantage_pct : float;
  delay_advantage_pct : float;
}

val connectivity :
  ?runs:int -> ?seed:int -> ?degrees:float list -> ?jobs:int -> unit ->
  point list
(** Defaults: 150 runs, seed 42, degrees 3, 4, 6, 8, 10 on 50-router
    graphs with 10 receivers, 1 job.  [jobs > 1] shards runs across
    domains; output is byte-identical for every [jobs]. *)

val size :
  ?runs:int -> ?seed:int -> ?sizes:int list -> ?jobs:int -> unit -> point list
(** Defaults: 150 runs, seed 42, router counts 20, 50, 100, 150 with
    degree 4 and a fifth of the hosts subscribed, 1 job. *)

val group : x_label:string -> point list -> Stats.Series.group
