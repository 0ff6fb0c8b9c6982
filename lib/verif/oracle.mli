(** Protocol oracles: properties a settled state must satisfy.

    Structural oracles read the data-plane fan-out through
    {!Sut.t.data_targets} — the same rule the protocol forwards
    with — and compare it against the routing ground truth;
    the delivery oracle actually sends a data packet and counts
    arrivals.  Within {!check} the probe runs first, so the
    structural oracles judge the state one probe horizon past the
    quiescent point, not the quiescent point itself.  Each check bumps
    [verif.oracle.<name>.checks]/[.violations] in
    {!Obs.Metrics.default}. *)

type violation = { oracle : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val tree_check : Sut.t -> violation list
(** [tree_loop_free]: expanding the data-plane fan-out from the
    source never revisits a node on the current copy chain.
    [tree_span]: every topologically-reachable member is covered by
    the expansion, every copy has a unicast route, and no non-member
    candidate still receives data (stale state must age out). *)

val delivery_check : Sut.t -> violation list
(** [no_blackhole] / [no_duplicate] / [no_misdelivery]: one probe
    packet reaches every reachable member exactly once and nobody
    else.  {b Mutates the SUT} (clock, dedup state): checkpoint
    around it. *)

val hbh_first_join : Sut.t -> violation list
(** HBH only: whenever a reachable member exists, the source holds
    forwarding state — the first join must always reach the source
    (Section 3.2).  Empty for other protocols. *)

val hbh_branch_on_path : Sut.t -> violation list
(** HBH only: every branching router still emitting tree messages
    lies on the unicast path between the source and some member
    (forward or reverse — the two differ under asymmetric costs).
    Fusion must never leave an active branching router off-tree. *)

val hpim_assert_unique : Sut.t -> Sut.router_link list -> violation list
(** HPIM-DM only, over the {!Sut.t.router_links} rows: both endpoints
    of every constituted router-router link agree on who wins the
    link's assert election — exactly one winner per link.  Empty for
    other protocols. *)

val hpim_assert_losers : Sut.t -> Sut.router_link list -> violation list
(** HPIM-DM only, against the rows' assert views: every data-plane
    fan-out edge toward a router ({!Sut.t.data_targets}, the rule
    [Hpim.Dm] forwards with) originates from the endpoint that wins
    that link's election in its own view — assert losers must not
    forward. *)

val hpim_nbr_consistency : Sut.t -> Sut.router_link list -> violation list
(** HPIM-DM only, over the rows: across every up router-router link,
    hello liveness is mutual and both recorded generation IDs match
    the neighbor's actual one — the hard state the two routers hold
    about each other has not silently diverged. *)

val structural_check : Sut.t -> violation list
(** All non-mutating oracles: {!tree_check} + the HBH pair + the
    HPIM-DM triple, the triple sharing one {!Sut.t.router_links}
    read. *)

val check : Sut.t -> violation list
(** {!delivery_check}, then {!structural_check} on the state the probe
    leaves; violations list the structural ones first.  Mutates the
    SUT. *)
