(** Typed trace events.

    One variant covers everything the protocol stack reports: control
    messages (join/tree/fusion), data-plane activity (forwarding and
    duplication), soft-state table updates and membership changes —
    each stamped with the simulated time, the node it happened at and
    (when known) the multicast channel.  Free-form strings remain
    possible through {!Note}, which is how the legacy string trace is
    subsumed.

    The module is deliberately dependency-free: a channel is carried
    as the source node id plus the raw class-D group address, so
    layers below [mcast] (netsim, eventsim) can emit events too. *)

type channel = { csrc : int; group : int32 }
(** The [<S, G>] pair, with [G] as its raw 32-bit address. *)

(** What happened to a soft-state table entry. *)
type table_op = Add | Refresh | Mark | Expire | Remove

type kind =
  | Join of { member : int; first : bool }
      (** A join message sent (HBH: [first] flags a fresh membership
          episode that must reach the source). *)
  | Tree of { target : int }  (** A tree message sent toward [target]. *)
  | Fusion of { members : int list }
      (** An HBH fusion message carrying the sender's member list. *)
  | Packet_forward of { next : int; dst : int; data : bool }
      (** One link traversal: the node put a packet bound for [dst]
          on the wire toward [next]. *)
  | Packet_duplicate of { dst : int; data : bool }
      (** A branching node created a fresh copy addressed to [dst]. *)
  | Mft_update of { target : int; op : table_op }
  | Mct_update of { target : int; op : table_op }
  | Member_join  (** The node subscribed to the channel. *)
  | Member_leave
  | Packet_lost of { next : int; dst : int; data : bool; reason : string }
      (** A packet bound for [dst] was dropped at this node; [reason]
          is the simulator's drop class (["loss"], ["link-down"],
          ["node-down"], ["filtered"]). *)
  | Link_down of { u : int; v : int }  (** Fault injection: link failed. *)
  | Link_up of { u : int; v : int }  (** Fault injection: link restored. *)
  | Node_crash  (** The node went down, losing all protocol state. *)
  | Node_restart  (** The node came back blank. *)
  | Route_reconverge of { changed : int }
      (** The unicast forwarding plane was recomputed; [changed]
          counts (node, destination) next-hop decisions that
          differ. *)
  | Invariant_violation of { oracle : string; detail : string }
      (** A runtime invariant monitor confirmed an oracle violation
          (loop in the tree, uncovered member, ...) during an
          ordinary run — the structured evidence behind
          [obs.monitor.violations]. *)
  | Note of string  (** Free-form message (legacy string traces). *)

type t = {
  time : float;  (** simulated time *)
  node : int;
  channel : channel option;
  kind : kind;
}

val make : time:float -> node:int -> ?channel:channel -> kind -> t

val label : kind -> string
(** Stable lowercase tag: ["join"], ["tree"], ["fusion"],
    ["pkt-fwd"], ["pkt-dup"], ["mft"], ["mct"], ["member-join"],
    ["member-leave"], ["pkt-lost"], ["link-down"], ["link-up"],
    ["crash"], ["restart"], ["reconverge"], ["invariant"],
    ["note"]. *)

val pp : Format.formatter -> t -> unit
(** Full line: time, node, label, body (e.g. ["join member=7 first"]),
    channel. *)
