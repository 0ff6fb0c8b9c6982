(** Bounded-cardinality per-channel metric rollups.

    A rollup is a label-set allocator in front of the registry's
    labeled families: each distinct channel value gets its own
    [key="value"] label set (on top of fixed base labels such as
    [protocol="hbh"]) until [max_series] distinct values have been
    seen; every value after that shares one [key="_other"] overflow
    series.  With a Zipf-shaped workload the hot channels — the ones
    worth per-series resolution — claim slots first-come, and the long
    tail aggregates instead of materializing thousands of one-sample
    series in the exporter.

    Cardinality is bounded per rollup (distinct channel values), not
    per metric name: one rollup shared by several instruments keeps
    the same channel→series mapping across all of them, so a channel's
    counter and histogram always carry matching labels. *)

type t

val create :
  ?key:string -> ?max_series:int -> ?labels:Labels.t -> Metrics.t -> t
(** [key] defaults to ["channel"]; [max_series] to [64]; [labels] are
    fixed base labels added to every series.  Raises
    [Invalid_argument] if [max_series < 1] or [labels] already binds
    [key]. *)

val counter : t -> string -> string -> Metrics.counter
(** [counter t name value] is [Metrics.counter_l _ name labels], where
    [labels] is the value's own label set (a slot allocated on first
    sight, while any remain) or the overflow set [key="_other"] —
    idempotent, like all registry registration. *)

val gauge : t -> string -> string -> Metrics.gauge

val series_count : t -> int
(** Distinct channel values holding their own slot. *)

val spilled : t -> bool
(** Whether any value has landed in the overflow series. *)
