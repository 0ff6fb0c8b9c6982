(** Simulated packets.

    A packet always carries a {e unicast} destination — the essence of
    recursive-unicast multicast.  The payload type is a parameter so
    each protocol library defines its own message variant; the [kind]
    tag lets the network accounting distinguish the data plane (whose
    per-link copies are the paper's tree-cost metric) from control
    traffic (whose volume is the protocol-overhead metric).

    [born] is the time the {e original} data packet left the source:
    branching routers propagate it into rewritten copies so that a
    receiver's delivery delay spans the whole source-to-receiver
    trip. *)

type kind = Data | Control

type 'p t = {
  src : int;  (** original sender of this copy *)
  dst : int;  (** unicast destination *)
  kind : kind;
  payload : 'p;
  born : float;
  mutable ttl : int;
  mutable via : int;
      (** the node that forwarded this packet last — the incoming
          interface, which RPF-style checks compare against the
          expected upstream neighbor *)
}

val make : src:int -> dst:int -> kind:kind -> born:float -> ttl:int -> 'p -> 'p t

val rewrite : 'p t -> src:int -> dst:int -> ?payload:'p -> unit -> 'p t
(** A branching router's copy: fresh [src]/[dst] (and optionally a new
    payload), same [kind] and [born], TTL reset to the original
    value is {e not} done — the copy inherits the remaining TTL, as a
    real decapsulating router would re-emit with a fresh IP header;
    we keep the remaining TTL to bound total work. *)

val dup : 'p t -> 'p t
(** An in-flight duplicate injected by a hostile link: same addresses,
    payload and remaining TTL, but a {e distinct} mutable record so the
    two copies age independently. *)
