(** IGMPv2-flavoured group membership on one LAN.

    The paper's Section 4.1 leans on IGMP twice: receivers reach
    their border router through it, and "the presence of one or many
    receivers attached to a border router does not influence the cost
    of the tree" — the LAN aggregates them into a single subscribed
    router.  This module implements the aggregation machinery: the
    router is the querier, member hosts answer general queries with
    membership reports after a random delay and {e suppress} their
    report when another member answers first (so report traffic stays
    O(groups), not O(hosts)), and the router ages a group out of its
    table when a membership timeout passes with no report.  Leaves
    are IGMPv2-style: an explicit leave triggers a group-specific
    query with a short response window.

    The LAN is a broadcast domain: every station hears every report.
    Everything runs on an {!Eventsim.Engine}; randomized report
    delays come from a seeded {!Stats.Rng}. *)

type config = {
  query_interval : float;  (** general queries, default 125 *)
  response_max : float;  (** report delay bound, default 10 *)
  last_member_response : float;  (** group-specific query window, default 2 *)
  robustness : int;  (** missed responses tolerated, default 2 *)
}

val default_config : config

type t

val create :
  ?config:config ->
  Eventsim.Engine.t ->
  Stats.Rng.t ->
  router:int ->
  hosts:int list ->
  t
(** The querier starts immediately; run the engine to make time
    pass. *)

val join : t -> host:int -> group:Mcast.Class_d.t -> unit
(** The host sends an unsolicited report and starts answering
    queries.  Raises [Invalid_argument] for an unknown host. *)

val leave : t -> host:int -> group:Mcast.Class_d.t -> unit
(** IGMPv2 leave: triggers a group-specific query; if no other member
    answers, the router drops the group. *)

val host_groups : t -> int -> Mcast.Class_d.t list
(** Groups a host is a member of, sorted. *)

val router_groups : t -> Mcast.Class_d.t list
(** Groups the router currently believes have local members, sorted —
    what it would graft into the multicast tree on the network side. *)

val router_has : t -> Mcast.Class_d.t -> bool

(** {1 Traffic accounting} *)

val queries_sent : t -> int
val reports_sent : t -> int
