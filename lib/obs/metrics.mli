(** The metrics registry: named counters, gauges and fixed-bucket
    histograms.

    Designed to be always-on: updating a registered instrument is an
    integer/float mutation with no allocation and no lookup — callers
    register once (module initialisation or session setup) and hold
    the instrument.  Registration is idempotent: asking twice for the
    same name returns the same instrument, so independent modules can
    share a series by name.

    A domain-local {!default} registry is where the protocol stack
    reports; scoped registries can be created for tests and swapped in
    with {!with_registry}, and per-run registries from a parallel
    sweep combine with {!merge_into}. *)

type t

val create : unit -> t

val default : unit -> t
(** The current domain's default registry, used by the stack's
    built-in instrumentation ([hbh.*], [reunite.*], [net.*],
    [engine.*]).  Domain-local: each domain starts with a fresh
    registry, so parallel sweep workers never share one. *)

val with_registry : t -> (unit -> 'a) -> 'a
(** [with_registry r f] runs [f] with [r] as the current domain's
    default registry, restoring the previous one afterwards (also on
    exception).  Hot handles re-resolve against [r] for the duration,
    and every owner created inside the scope binds to [r] (see
    {!bind}), so all built-in instrumentation of a run built inside
    the scope lands in [r]. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src]'s instruments into [into]:
    counters sum, set (non-NaN) gauges overwrite, histograms merge
    bucket-wise ({!Histo.merge}).  Merging per-run registries in run
    order therefore reproduces exactly what a sequential sweep would
    have accumulated — including the float histogram sums, which is
    what makes parallel output byte-identical to sequential. *)

(** {1 Instruments} *)

type counter

val counter : t -> string -> counter
(** Register (or fetch) a monotonically increasing integer. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

type gauge

val gauge : t -> string -> gauge
(** Register (or fetch) a last-value-wins float. *)

val set : gauge -> float -> unit
(** A gauge reads [nan] until first set. *)

val histogram : t -> ?buckets:float array -> string -> Histo.t
(** Register (or fetch) a histogram; [buckets] only applies on first
    registration. *)

(** {1 Labeled series}

    A labeled instrument is one series of a family: same base name,
    distinguished by a canonical {!Labels.t} (e.g.
    [span.time_to_repair{protocol="hbh"}]).  Identity is (name, label
    set) — label construction order never splits a series.  Labeled
    series appear in snapshots under their encoded
    [name{k="v",...}] key, sorted with everything else. *)

val counter_l : t -> string -> Labels.t -> counter
val gauge_l : t -> string -> Labels.t -> gauge
val histogram_l : t -> ?buckets:float array -> string -> Labels.t -> Histo.t

(** {1 Hot handles}

    Module-level instrument names for always-on instrumentation.  A
    plain [counter (default ()) name] binding evaluated at module
    initialisation would capture the initialising domain's registry
    forever; a hot handle instead follows the {e current} domain's
    default registry (tracking both domain spawns and
    {!with_registry} swaps).  Creating a handle registers the
    instrument immediately in the creating domain's registry, so
    never-fired instruments still appear (as zeros) in snapshots.

    Following costs two domain-local reads, a tuple load and a pointer
    compare per update through {!hot_incr} — some 17–28 ns against
    3–5 ns for {!incr} on a held counter.  That is fine on cold sites
    (analytic tree builds, the explorer, fault directives, monitors),
    but not per event: code that updates an instrument per fired
    event, packet hop, handled message or cache lookup binds the
    handle once instead.

    {b The owner contract.}  An owner — an engine, a network, a
    routing table, a protocol session — calls {!bind} on each handle
    when it is created and from then on updates the held instrument.
    It therefore counts into the registry that was current {e when
    it was created}, not the one current at each update: an owner
    built under registry A and later run inside [with_registry B]
    keeps counting into A.  Build the owners of a run inside the
    scope whose registry should receive its counts, as
    {!with_registry}'s sweep callers do. *)

type hot_counter

val hot_counter : string -> hot_counter
val hot_incr : hot_counter -> unit

val hot_value : hot_counter -> int
(** Value in the current domain's default registry. *)

val bind : hot_counter -> counter
(** The handle's counter in the current domain's default registry,
    resolved once; see the owner contract above. *)

type hot_gauge

val hot_gauge : string -> hot_gauge

val bind_gauge : hot_gauge -> gauge
(** {!bind} for gauges. *)

type hot_histogram

val hot_histogram : ?buckets:float array -> string -> hot_histogram

val bind_histogram : hot_histogram -> Histo.t
(** {!bind} for histograms. *)

val reset : t -> unit
(** Zero every instrument (counters to 0, gauges to [nan], histograms
    emptied).  Instruments stay registered — held references remain
    valid.  Experiment entry points call this so each run's snapshot
    stands alone instead of accumulating across a sweep. *)

(** {1 Snapshots} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * Histo.snapshot) list;
}

val snapshot : t -> snapshot

type 'v series = { base : string; labels : Labels.t; value : 'v }

val counter_series : t -> int series list
(** Every counter with its decomposed (base, labels), sorted by
    encoded key — what the OpenMetrics exporter walks. *)

val gauge_series : t -> float series list
val histogram_series : t -> Histo.snapshot series list

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Aligned [name value] lines, counters then gauges then
    histograms. *)

val snapshot_to_json : snapshot -> Json.t
