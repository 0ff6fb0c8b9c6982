(** The paper's ISP evaluation topology (Figure 6).

    The figure in the paper — taken from Apostolopoulos et al.,
    SIGCOMM'98 — shows a "typical large ISP network" of 18 routers
    (nodes 0..17) with average degree 3.3, each with one attached
    potential receiver (nodes 18..35).  The published figure is not
    machine-readable, so this module encodes a faithful equivalent: 18
    routers in three regional meshes joined by redundant long-haul
    links, 30 router-router links (average degree 2*30/18 = 3.33) and
    one host per router, numbered exactly as in the paper (hosts
    18..35, host [18] attached to router [0]).

    The paper fixes node 18 as the channel source; {!source} exposes
    that convention. *)

val create : unit -> Graph.t
(** Fresh ISP topology with unit costs; randomize with
    {!Graph.randomize_costs} before use. *)

val source : int
(** The paper's source, host node 18. *)

val receiver_hosts : int list
(** All potential receivers: hosts 19..35 (every host but the
    source). *)
