(** Event-driven PIM-SSM (source-specific multicast) over the packet
    simulator — the IP-multicast baseline for the fault-recovery
    experiments, complementing the analytic {!Pim_ss} tree builder.

    Receivers periodically send (S,G) joins toward the source; each
    join travels hop by hop along the {e reverse} shortest path (RPF),
    installing at every router an outgoing-interface entry for the
    neighbor it arrived from, with a holdtime.  Data fans out along
    the recorded oifs, one copy per downstream neighbor; each node
    fans a sequence number out once (the session's loop damper,
    {!Proto.Session.Make.forward_data}) in place of an RPF check on
    the incoming interface.

    Recovery story (contrast with HBH/REUNITE's tree refresh): after
    a failure plus unicast reconvergence, the very next periodic join
    travels the {e new} reverse path and re-installs state there; the
    orphaned branch ages out when its holdtime lapses. *)

type ('jx, 'tx, 'extra) gen = ('jx, 'tx, 'extra) Proto.Messages.t =
  | Join of { channel : Mcast.Channel.t; member : int; ext : 'jx }
  | Tree of { channel : Mcast.Channel.t; target : int; ext : 'tx }
  | Data of { channel : Mcast.Channel.t; seq : int }
  | Extra of { channel : Mcast.Channel.t; extra : 'extra }
(** {!Proto.Messages.t} re-exported so the constructors live in this
    namespace. *)

type config = {
  join_period : float;  (** periodic join refresh interval *)
  holdtime : float;  (** oif entry lifetime (> join_period) *)
}

(** [default_config]: join period 100, holdtime 350 — comparable to
    the HBH/REUNITE t1 deadline so the protocols' state decays on
    similar scales.

    PIM-SSM only speaks joins ([member] is the hop that sent the
    refresh) and data; the tree and extra classes are uninhabited. *)
include
  Proto.Session.S
    with type config := config
     and type jx = unit
     and type tx = Proto.Messages.nothing
     and type extra = Proto.Messages.nothing

(** {1 Inspection} *)

val all_oifs : t -> (int * Proto.Softstate.entry list) list
(** Every node holding oif state, with its entries (dead ones
    included until swept), ascending by node — the verification
    layer's state-digest input. *)
