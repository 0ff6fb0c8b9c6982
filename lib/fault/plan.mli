(** The fault-plan DSL: a reproducible scenario is a list of timed
    directives, so that (plan, seed) fully determines a faulty run.

    Times are simulated-time offsets from the moment the plan is
    scheduled ({!Injector.schedule}) or replayed.  Nothing reconverges
    routing on its own: a topology change leaves packets on stale
    next hops until an explicit {!Reconverge} directive. *)

type action =
  | Loss_all of { rate : float }
      (** Background loss rate on every directed link. *)
  | Link_down of { u : int; v : int }  (** Fail a link, both directions. *)
  | Link_up of { u : int; v : int }  (** Clear a link's failure. *)
  | Crash of { node : int }
      (** The node goes down: its soft state is wiped (protocol
          sessions listen for this), its incident links drop, and all
          traffic touching it is lost. *)
  | Restart of { node : int }
      (** The node comes back blank, and so do the incident links
          nothing else holds down. *)
  | Partition_named of { name : string; island : int list }
      (** Split the graph into two named sides by failing every link
          with exactly one endpoint in [island], {e remembering} exactly
          which links were cut under [name] so the matching
          {!Heal_named} restores precisely those — robust against
          links that fail or heal for other reasons in between.
          Applying an already-open name is a no-op.  [name] must be
          non-empty, without spaces or commas. *)
  | Heal_named of { name : string }
      (** Restore the links cut by the named partition (no-op for an
          unknown or already-healed name). *)
  | Jitter of { max_delay : float }
      (** Adversarial delivery: max uniform extra delay per hop,
          network-wide ({!Netsim.Network.set_jitter}). *)
  | Reorder of { window : float; prob : float }
      (** Bounded reordering: with probability [prob] a traversal is
          held back by up to [window] extra time units. *)
  | Duplicate of { prob : float }
      (** Probability that a traversal spawns a duplicate copy. *)
  | Burst_loss of { prob : float; len : int }
      (** Correlated loss: each traversal may open a burst eating it
          and the next [len - 1] traversals of that directed link. *)
  | Drop_control of { prob : float }
      (** Control-plane-targeted drop filter: every control packet is
          dropped with probability [prob] before transmission (data
          passes).  [prob = 0] removes the filter.  Installs the
          network's drop filter — replaces any caller-set one. *)
  | Reconverge
      (** Recompute the unicast routing table against the current
          topology and notify the protocols.  Drivers place it
          {!detection_lag} after each topology change. *)
  | Join of { member : int }
      (** A receiver subscribes to the channel.  Requires membership
          hooks ({!Injector.set_membership}); the verification layer's
          scenarios use this so a whole counterexample — churn
          included — is one replayable plan. *)
  | Leave of { member : int }  (** A receiver unsubscribes. *)

type directive = { at : float; action : action }

val detection_lag : float
(** The failure-detection window, 30 time units: every driver
    schedules the {!Reconverge} that follows a topology change this
    long after it. *)

type t
(** A plan: directives ordered by time. *)

val make : (float * action) list -> t
(** Sorts by time (stable).  Raises [Invalid_argument] on negative or
    non-finite times, probabilities outside [0,1] (NaN included),
    negative or non-finite delays and windows, and empty islands. *)

val directives : t -> directive list
(** {1 Replayable text form}

    One directive per line, [@<time> <action> <args...>]; blank lines
    and [#] comments are ignored on parse.  The on-disk format of the
    golden counterexample fixtures: [of_string (to_string p)] is [p]. *)

val to_string : t -> string

val of_string : string -> t
(** Raises [Invalid_argument] on a malformed line or a value {!make}
    rejects, and nothing else. *)
