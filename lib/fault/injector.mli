(** Applies a {!Plan} to a running network.

    The injector owns the bookkeeping that makes fault combinations
    compose: per-link down-cause refcounts (an explicit link failure
    and a crashed endpoint each count as one cause, so restarting a
    node does not revive a link that was also failed explicitly), the
    crashed-node set and the cuts of the open named partitions.
    Routing reconverges only on a {!Plan.Reconverge} directive
    ({!Netsim.Network.reconverge}). *)

type 'p t

val create : 'p Netsim.Network.t -> 'p t
(** Losses draw from the network's fault RNG: seed it
    ({!Netsim.Network.set_fault_rng}) for runs reproducible from
    [(plan, seed)]. *)

val schedule : 'p t -> Plan.t -> unit
(** Schedule every directive on the network's engine, relative to
    now.  May be called repeatedly (e.g. to append a repair phase). *)

val apply : 'p t -> Plan.action -> unit
(** Apply one action immediately at the current simulated time.
    Raises [Invalid_argument] on a {!Plan.Join}/{!Plan.Leave} action
    when no membership hooks are installed. *)

val set_membership :
  'p t -> subscribe:(int -> unit) -> unsubscribe:(int -> unit) -> unit
(** Wire {!Plan.Join}/{!Plan.Leave} directives to a protocol session's
    membership calls, making churn expressible in a plan. *)

(** {1 Checkpoint / restore}

    The down-cause refcounts and crashed set are world state: a
    checkpointing explorer ({!Netsim.Network.snapshot}) must carry
    them along, or a restored branch sees stale causes and re-applied
    crash/link directives silently no-op. *)

type snap

val save : 'p t -> snap
val restore : 'p t -> snap -> unit
(** A [snap] may be restored any number of times. *)
