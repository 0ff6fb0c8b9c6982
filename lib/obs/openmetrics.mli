(** OpenMetrics text exposition.

    Renders a {!Metrics} registry in the Prometheus/OpenMetrics text
    format: counters as [<name>_total], gauges verbatim (unset gauges
    skipped), histograms as the cumulative [_bucket{le=...}] series
    plus [_sum]/[_count], one [# TYPE] line per family, labeled
    series carrying their label sets, terminated by [# EOF].  Metric
    names have our dot namespacing mapped to underscores
    ([hbh.join.sent] → [hbh_join_sent_total]).

    Output order is the registry's sorted series order, so a seeded
    run exports byte-identical text. *)

val of_metrics : Metrics.t -> string
