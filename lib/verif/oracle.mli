(** Protocol oracles: properties a settled state must satisfy.

    The generic oracles hold for every protocol.  The structural ones
    read the data-plane fan-out through {!Sut.t.data_targets} — the
    same rule the protocol forwards with — and compare it against the
    routing ground truth:
    - [tree_loop_free]: expanding the fan-out from the source never
      revisits a node on the current copy chain;
    - [tree_span]: every topologically-reachable member is covered by
      the expansion, every copy has a unicast route, and no non-member
      candidate still receives data (stale state must age out).

    The delivery oracles actually send one probe packet and count
    arrivals: it reaches every reachable member exactly once
    ([no_blackhole], [no_duplicate]) and nobody else
    ([no_misdelivery]).

    A protocol's own oracles (HBH's first-join and branch-on-path
    checks, HPIM-DM's assert and neighbor checks) live in its registry
    row and run through {!Sut.t.oracles}; this module names no
    protocol.  Each check bumps [verif.oracle.<name>.checks] (and
    [.violations] on a hit) in {!Obs.Metrics.default}, so an oracle
    counts only on the protocols it runs on. *)

type violation = Sut.violation = { oracle : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

val structural_check : Sut.t -> violation list
(** All non-mutating oracles: [tree_loop_free] and [tree_span], then
    the protocol's own ({!Sut.t.oracles}), in that order. *)

val check : Sut.t -> violation list
(** The delivery probe, then {!structural_check} on the state the
    probe leaves: the structural oracles judge the state one probe
    horizon past the quiescent point, not the quiescent point itself.
    Violations list the structural ones first.  {b Mutates the SUT}
    (clock, dedup state): checkpoint around it. *)
