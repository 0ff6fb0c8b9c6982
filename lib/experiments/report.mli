(** The markdown convergence report behind [hbh_sim report]: the
    fault-recovery outcome table, per-case time-to-repair
    quantiles, the join-latency table, sampled recovery timelines,
    and the runtime invariant monitors' verdict — one deterministic
    document per seed. *)

val markdown :
  seed:int ->
  outcomes:Faults.outcome list ->
  obs:Faults.case_obs list ->
  join_latency:Faults.join_latency list ->
  unit ->
  string
