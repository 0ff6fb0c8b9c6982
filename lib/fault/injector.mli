(** Applies a {!Plan} to a running network.

    A link's state is derived from stored facts, never counted: it is
    up iff it is not failed explicitly, lies in no open named
    partition's cut, and both of its endpoints are up
    ({!Netsim.Network.node_up}).  So a restart does not revive a link
    failed explicitly, nor a link-up a crashed router's link.  Routing
    reconverges only on a {!Plan.Reconverge} directive
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

val failed_links : 'p t -> (int * int) list
(** The explicitly failed links, [(u, v)] with [u < v], ascending: the
    fact a {!Plan.Link_up} clears. *)

(** {1 Checkpoint / restore}

    The failed links and open cuts are world state the network
    snapshot ({!Netsim.Network.snapshot}) does not hold: a
    checkpointing explorer saves them alongside it. *)

type snap

val save : 'p t -> snap
val restore : 'p t -> snap -> unit
(** A [snap] may be restored any number of times. *)
