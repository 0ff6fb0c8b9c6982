(** The channel multiplexer: the network's one handler, one delivery
    hook, and one timer wheel per network, shared by every protocol
    session riding on it.

    The mux alone decides where sessions run: it hands a packet to a
    port only at nodes it {!cover}s, and dispatches there O(1) per
    packet-hop by {!Mcast.Channel.key} (a flat int) to a per-channel
    {!type-port}.  It batches same-deadline timers in a shared
    {!Eventsim.Wheel}, so k channels cost one handler and one delivery
    listener, not k of each.  Seeded runs are pinned by the delivery
    digests in [test/test_proto.ml]. *)

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
(** Sets the dispatcher as the network's handler
    ({!Netsim.Network.set_handler}, so a second mux on one network
    raises [Invalid_argument]) and installs the shared hooks: one
    [on_delivery], one [on_node_event], one [on_route_change].  The
    dispatcher forwards at nodes not {!cover}ed.  [key_of] maps a
    payload to its channel key; packets whose key has no registered
    port fall through ([Forward] / ignored).  [tag] labels the shared
    timer wheel's engine events. *)

val network : 'p t -> 'p Netsim.Network.t

val timers : 'p t -> Eventsim.Wheel.t
(** The shared timer wheel (control ticks, sweeps, member joins). *)

val register : 'p t -> key:int -> 'p port -> unit
(** Raises [Invalid_argument] on a duplicate key. *)

val cover : 'p t -> int -> unit
(** Runs the dispatcher at the node from now on; idempotent. *)

(** {1 Checkpoint / restore}

    The mux's mutable footprint on top of {!Netsim.Network.snapshot}:
    coverage and the timer wheel (sink counts live in the network
    snapshot).  Restore the network first.  Sessions sharing a mux
    snapshot/restore as one unit. *)

type state

val save_state : 'p t -> state
val restore_state : 'p t -> state -> unit
