(** REUNITE (Stoica, Ng & Zhang, INFOCOM 2000) — converged-tree
    model.

    REUNITE's tree depends on the {e order} receivers join: a join
    travels the receiver's reverse unicast path toward the source and
    is captured by the first router already on the tree (branching
    router, or control-state router which then becomes branching).
    Under asymmetric unicast routing this puts branching points on
    reverse paths that data (flowing {e forward}) reaches by a detour
    — the Section 2.3 pathologies: receivers served by
    longer-than-shortest paths and links carrying duplicate copies.

    This module computes the tree REUNITE converges to after a given
    join sequence (and, on a leave, the structure the refresh-join
    mechanism re-forms, which equals a fresh construction over the
    remaining sequence — see DESIGN.md).  Message-level dynamics live
    in {!Protocol}. *)

type t

val create : Routing.Table.t -> source:int -> t
(** [source] is any node; the paper uses a host. *)

val join : t -> int -> unit
(** Process a receiver's join.  Idempotent for current members.
    Raises [Invalid_argument] if the receiver equals the source or
    cannot reach it. *)

val leave : t -> int -> unit
(** Remove a member; the remaining members re-form the converged
    structure (fresh construction in original join order).  No-op for
    non-members. *)

val settle : t -> unit
(** Replay the members' {e refresh} joins to a fixpoint: between two
    arrivals every member keeps re-joining, and a refresh join can be
    captured by a table that appeared since, adding the member at the
    new capture point while its old entry lives on until t2.  [join]
    alone models the paper's measure-immediately-after-joins regime
    (the figures); [settle] after each join matches what the
    event-driven protocol's tables look like a few periods later.
    Re-inserts every flow after each round of refresh joins. *)

val flow_inserts : t -> int
(** Flows inserted into the model so far.  A {!join} of a new member
    inserts exactly one, the flow to that member (unless the source
    is a router that a flow forks at in transit: then every flow is
    re-inserted).  {!settle} re-inserts every flow, and {!leave}
    re-joins the remaining members one flow each. *)

val distribution : t -> Mcast.Distribution.t
(** Replay one data packet through the current tables: per-link
    copies (duplicates included) and per-receiver delays. *)

val data_path : t -> int -> int list option
(** The route a data packet actually takes from the source to the
    given member — through the branching chain, not necessarily the
    shortest path. *)

val state : t -> Mcast.Metrics.state
(** Router control/forwarding footprint (source excluded). *)

val mft_of : t -> int -> (int * int list) option
(** [(dst, receivers)] of a node's forwarding table, if it has one. *)

val mct_of : t -> int -> int list
(** Control-table entries of a node, flow-arrival order ([[]] if
    none). *)

val build :
  Routing.Table.t -> source:int -> receivers:int list -> Mcast.Distribution.t
(** One-shot: join every receiver in list order and return
    {!distribution}. *)
