(** Runtime invariant monitors: the read-only structural oracles
    ({!Oracle.structural_check} — loop freedom, coverage, HBH
    first-join and fusion placement) armed as a periodic probe inside
    an ordinary run, no model checker required.

    Soft-state transients are expected to fail a single probe (a
    leaving member's state ages out over t2; a repaired link refills
    tables over a few control periods), so a violation is only
    {e confirmed} after three consecutive probes, one every t2 of the
    SUT, observe the same (oracle, detail) pair.  Transients bounded
    by the protocol's own recovery budget (2·t2) can be seen at most
    twice in a row, while
    a genuine break — a forwarding loop that survives fusion, a
    permanently blackholed member — persists and crosses the
    threshold.

    Probes are pure observation: they read tables and routes, never
    mutate protocol or network state, and schedule only their own
    timer events — a seeded run's outcome is identical with monitors
    on or off.  Accounting lands in [obs.monitor.checks] /
    [.observations] / [.violations]; each confirmation also records
    an {!Obs.Event.Invariant_violation} trace event at the source. *)

type t

type confirmed = { time : float; violation : Oracle.violation }

val attach : Sut.t -> t
(** Arm a monitor on the SUT's engine.  It probes every t2 of the
    SUT, from [now + t2] until {!stop}. *)

val stop : t -> unit

val checks : t -> int
(** Probes run so far. *)

val violations : t -> confirmed list
(** Confirmed violations in confirmation order.  Each (oracle,
    detail) pair confirms once per continuous streak. *)

val violation_count : t -> int

val pp_summary : Format.formatter -> t -> unit
(** One line of accounting plus one indented line per confirmed
    violation. *)
