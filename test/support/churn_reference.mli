(** The Set-based churn schedule generator that {!Workload.Churn} ran
    before its O(log n) draws: each arrival materialises the free
    candidates as a list and picks one with {!Stats.Rng.pick}.
    test_workload checks the production generator against it. *)

val poisson :
  Stats.Rng.t ->
  candidates:int list ->
  rate:float ->
  mean_hold:float ->
  horizon:float ->
  Workload.Churn.schedule
(** The reference for {!Workload.Churn.poisson}. *)

val multi :
  seed:int ->
  channels:int ->
  candidates:int list ->
  rate:float ->
  popularity:Workload.Zipf.t ->
  mean_hold:float ->
  horizon:float ->
  (float * int * Workload.Churn.event) list
(** Per-channel {!poisson} streams merged by the stable sort on (time,
    channel) that {!Workload.Churn.multi} documents. *)
