(** The event-driven HBH protocol: one channel, agents on the source
    and every multicast-capable router, and periodic joins from the
    receivers, exchanging {!Messages} over a {!Netsim.Network} exactly
    per Appendix A.

    Typical use:
    {[
      let session = Protocol.create table ~source in
      Protocol.subscribe session r1;
      Protocol.subscribe session r2;
      Protocol.converge session ();
      let dist = Protocol.probe session in     (* one data packet *)
      assert (Mcast.Distribution.max_stress dist = 1)
    ]}

    Routers flagged not multicast-capable get no agent and forward
    HBH messages as opaque unicast — the protocol's incremental
    deployment story. *)

type config = {
  join_period : float;  (** receiver join refresh interval *)
  tree_period : float;  (** source tree emission interval *)
  t1 : float;  (** entry staleness deadline (> periods) *)
  t2 : float;  (** entry destruction deadline (> t1) *)
}

(** [default_config]: join/tree period 100, t1 250, t2 550 —
    comfortably above the largest path delay of the evaluation
    topologies, so refreshes always land before staleness. *)
include
  Proto.Session.S
    with type config := config
     and type jx = bool
     and type tx = int
     and type extra = Messages.fusion

(** {1 Inspection} *)

val source_table : t -> Proto.Softstate.Table.t
(** The source's own forwarding table (first-hop receivers and
    branching nodes); kept alive by join messages alone, so
    suppressing joins lets its entries age through t1/t2. *)

val all_tables : t -> (int * Tables.channel_state) list
(** Every router holding state, with that state (never [No_state]),
    ascending by node — the verification layer's state-digest input.
    The source is not included; read its table via {!source_table}. *)
