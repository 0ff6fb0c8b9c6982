(** Recovery metrics: how fast and how cleanly a protocol re-delivers
    after a fault.

    Protocol-agnostic: the experiment feeds it sequenced probe sends
    ({!note_send}), per-receiver deliveries ({!note_delivery}, wired
    through {!Netsim.Network.on_delivery}), the instant the first
    fault hit ({!note_fault}), and cumulative control-hop samples
    ({!note_control}) to measure overhead inflation.

    Time-to-repair for a receiver is the delay from the fault to its
    first delivery of a probe {e sent after} the fault — copies
    already in flight when the fault hit do not prove the tree
    healed.  Lost deliveries count post-fault probes that never
    arrived, so stop the probe stream at least a delivery horizon
    before reading the {!report}. *)

type t

val create : receivers:int list -> t

val repaired_count : t -> int
(** Receivers whose first post-fault delivery has been seen — the
    monotone recovery curve a timeline samples. *)

val delivery_count : t -> int
(** Distinct (receiver, seq) deliveries observed so far. *)

val copy_count : t -> int
(** Every delivery observed so far, duplicates included. *)

val sent_count : t -> int
(** Distinct sequence numbers noted by {!note_send}. *)

val last_delivery : t -> int -> float option
(** When a node (listed receiver or not) last received data. *)

val note_send : t -> now:float -> seq:int -> unit
(** First call per [seq] wins (retransmissions keep the original
    send time). *)

val note_delivery : t -> now:float -> receiver:int -> seq:int -> unit
val note_fault : t -> now:float -> unit
(** Idempotent: keeps the earliest fault time. *)

val note_heal : t -> now:float -> unit
(** The repair instant (link restored, partition healed): closes the
    during-fault window that [goodput_floor] and
    [inflation_during_fault] measure.  Idempotent — earliest wins.
    Without it the window extends to the last observation. *)

val note_control : t -> now:float -> hops:int -> unit
(** Sample the cumulative control-hop counter.  At least one sample
    before the fault and one after (plus the initial one) are needed
    for {!report}'s [overhead_inflation] to be finite. *)

type receiver_outcome = {
  receiver : int;
  time_to_repair : float option;  (** [None]: never repaired *)
  lost : int;  (** post-fault probes never delivered here *)
  duplicated : int;  (** extra copies beyond the first, whole run *)
}

type report = {
  fault_time : float option;
  outcomes : receiver_outcome list;
  recovered : bool;  (** every receiver repaired *)
  max_time_to_repair : float option;  (** slowest repaired receiver *)
  total_lost : int;
  total_duplicated : int;
  sent_after_fault : int;
  overhead_inflation : float;
      (** post-fault control rate / pre-fault rate; [nan] when not
          measurable *)
  goodput_floor : float;
      (** worst per-sequence delivery fraction (deliveries /
          receivers) among probes sent while the fault was active
          (fault to {!note_heal}, or to the end of observation);
          [nan] when nothing was sent during the fault.  1.0 = full
          goodput throughout the fault, 0.0 = some probe reached
          nobody. *)
  worst_outage : float;
      (** longest silent gap any receiver suffered from the fault
          onward, including each receiver's still-open gap at the
          last observed instant; [nan] before any fault *)
  inflation_during_fault : float;
      (** control rate between fault and heal over the pre-fault
          rate — what members pay {e while} the network is broken
          (e.g. joins beating against a partition); falls back to
          [overhead_inflation] when no heal was noted *)
}

val report : t -> report

val export : ?prefix:string -> Obs.Metrics.t -> report -> unit
(** Publish as gauges ([<prefix>.recovered], [.time_to_repair_max],
    [.lost_deliveries], [.duplicate_deliveries], [.sent_after_fault],
    [.overhead_inflation], [.goodput_floor], [.worst_outage],
    [.inflation_during_fault]) plus a [<prefix>.time_to_repair]
    histogram of per-receiver repair times.  Non-finite values are
    skipped.  Default prefix ["fault.recovery"]. *)
