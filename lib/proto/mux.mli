(** The channel multiplexer: one netsim handler, one delivery hook,
    and one timer wheel per network, shared by every protocol session
    riding on it.

    The mux dispatches O(1) per packet-hop by {!Mcast.Channel.key} (a
    flat int) to a per-channel {!type-port}, and batches same-deadline
    timers in a shared {!Eventsim.Wheel}, so k channels cost one
    handler per node and one delivery listener, not k of each.  Seeded
    runs are pinned by the delivery digests in [test/test_proto.ml]. *)

type 'p port = {
  p_handle : int -> 'p Netsim.Packet.t -> Netsim.Network.verdict;
      (** per-hop agent for this channel's packets at covered nodes *)
  p_deliver : now:float -> node:int -> 'p Netsim.Packet.t -> unit;
      (** delivery hook for this channel's packets *)
  p_node_event : up:bool -> int -> unit;
  p_route_change : changed:int -> unit;
}

type 'p t

val create : ?tag:string -> key_of:('p -> int) -> 'p Netsim.Network.t -> 'p t
(** Installs the shared dispatcher hooks on the network: one
    [on_delivery], one [on_node_event], one [on_route_change].  The
    per-node data handler is only chained where {!cover} asks.
    [key_of] maps a payload to its channel key; packets whose key has
    no registered port fall through ([Forward] / ignored).  [tag]
    labels the shared timer wheel's engine events. *)

val network : 'p t -> 'p Netsim.Network.t
val engine : 'p t -> Eventsim.Engine.t

val timers : 'p t -> Eventsim.Wheel.t
(** The shared timer wheel (control ticks, sweeps, member joins). *)

val channels : 'p t -> int
(** Number of registered ports. *)

val register : 'p t -> key:int -> 'p port -> unit
(** Raises [Invalid_argument] on a duplicate key. *)

val cover : 'p t -> int -> unit
(** Chains the shared dispatcher at the node, once — later calls for
    the same node are no-ops. *)

val sink_acquire : 'p t -> int -> unit
(** Refcounted {!Netsim.Network.set_sink}: the node becomes a sink on
    the first acquire.  Per-channel membership of one host must not
    be clobbered by another channel's unsubscribe. *)

val sink_release : 'p t -> int -> unit

(** {1 Checkpoint / restore}

    The mux's mutable footprint on top of {!Netsim.Network.snapshot}:
    cover set, sink refcounts, timer wheel.  Restore the network
    first.  Sessions sharing a mux snapshot/restore as one unit. *)

type state

val save_state : 'p t -> state
val restore_state : 'p t -> state -> unit
