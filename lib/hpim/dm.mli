(** HPIM-DM: the hard-state fourth protocol instance (Oliveira/Silva/
    Valadas, arXiv 2002.06635), adapted to the runtime's
    point-to-point message model.

    The design opposite of HBH's soft state: a node's interest is
    the {e hard} set of its interested downstream neighbors (no
    deadlines; a neighbor enters or leaves it only on explicit
    events), control messages are sequence-numbered and
    {e reliable} ({!Proto.Reliable} — per-neighbor retransmission
    with bounded backoff until acked), neighbor liveness comes from
    periodic Hellos carrying generation IDs (a changed ID means the
    neighbor restarted and triggers a reliable state
    re-synchronization), and each (link, channel) runs a
    deterministic assert-winner election — lexicographic
    (root-path-cost metric, node id) — so only the winning endpoint
    feeds data onto a link.

    Steady state sends {e no} per-member refresh traffic: a member's
    interest travels upstream once, reliably; only the fixed-rate
    hello cycle remains.  Repair is event-driven — routing
    reconvergence moves the RPF parent, the next audit retracts from
    the old parent and re-expresses to the new one, and hard entries
    behind a healed outage resume forwarding instantly instead of
    being rebuilt by refresh.

    The data-plane rule is the session's [data_targets] hook: a
    node's downstream entries that are unicast-reachable and, for
    router targets, on the winning side of the link's assert
    election.  Data fans out through the session's loop damper
    ({!Proto.Session.Make.forward_data}). *)

type ('jx, 'tx, 'extra) gen = ('jx, 'tx, 'extra) Proto.Messages.t =
  | Join of { channel : Mcast.Channel.t; member : int; ext : 'jx }
  | Tree of { channel : Mcast.Channel.t; target : int; ext : 'tx }
  | Data of { channel : Mcast.Channel.t; seq : int }
  | Extra of { channel : Mcast.Channel.t; extra : 'extra }

type join_ext = {
  j_sn : int;  (** reliable sequence number *)
  j_int : bool;  (** [true]: Interest, [false]: NoInterest *)
  j_genid : int;  (** sender's generation ID (resets the dedup window) *)
}

type ack_ext = { a_sn : int; a_cls : int }

type xtra =
  | Hello of { h_genid : int; h_metric : int; h_seq : int }
  | Sync of { s_sn : int; s_genid : int; s_metric : int; s_int : bool }

type config = {
  hello_period : float;
  holdtime : float;
      (** a neighbor is declared dead this long after its last hello *)
  rto : float;  (** initial reliable-retransmission timeout *)
  rto_max : float;  (** retransmission backoff cap *)
  join_period : float;
      (** members' audit period (audits post only on change) *)
}

include
  Proto.Session.S
    with type config := config
     and type jx = join_ext
     and type tx = ack_ext
     and type extra = xtra

(** {1 Inspection}

    Structured views for the verification layer: canonical state
    digests ({!Verif.Sut}) and the assert-election / neighbor-
    consistency oracles ({!Verif.Oracle}). *)

type nbr_view = {
  nv_node : int;
  nv_alive : bool;  (** last hello within holdtime *)
  nv_metric : int;  (** advertised root path cost ([max_int] unknown) *)
  nv_genid : int;  (** last recorded generation ID *)
}

type node_view = {
  vw_member : bool;
  vw_expressed : (int * bool) option;
      (** upstream (parent, polarity) last expressed *)
  vw_down : int list;  (** interested downstream neighbors, ascending *)
  vw_nbrs : nbr_view list;  (** neighbor records, ascending *)
}

val view : t -> (int * node_view) list
(** Every node holding state, ascending. *)

val genid : t -> int -> int option
(** The node's own current generation ID, if it holds state. *)

val metric : t -> int -> int
(** The node's live root path cost ([max_int] when the source is
    unreachable) — the assert-election metric. *)

val pending_digest : t -> Buffer.t -> unit
(** Append the reliable layer's pending slot keys (sorted) to a
    canonical digest: unacked control traffic means not settled. *)

