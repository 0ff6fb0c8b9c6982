(** Source-specific multicast channels.

    A channel is the EXPRESS/HBH [<S, G>] pair: the source's unicast
    address (a node id here) plus a class-D group address the source
    allocated.  A session serves one channel, and {!key} is what the
    channel multiplexer dispatches a packet to its session by. *)

type t = { source : int; group : Class_d.t }

val make : source:int -> group:Class_d.t -> t

val fresh : source:int -> t
(** Allocates a new group address for [source] from a global
    per-source allocator (deterministic across runs). *)

val source : t -> int
val group : t -> Class_d.t

val key : t -> int
(** Flat integer key: [source] packed above the 32 group-address bits.
    Injective for node ids < 2^30, allocation-free — the dispatch key
    of the channel multiplexer ({!Proto.Mux}). *)
