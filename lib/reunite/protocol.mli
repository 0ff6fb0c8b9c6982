(** The event-driven REUNITE protocol — the baseline HBH is compared
    against, implemented per [Stoica et al., INFOCOM 2000] as
    recapped in Section 2 of the HBH paper: join capture at any
    on-tree router, periodic tree messages forked at branching
    routers, marked trees tearing a departed receiver's branch down
    so the remaining receivers re-join closer to the source
    (Figure 2(b)-(d)).

    Mirrors {!Hbh.Protocol}'s API so experiments can drive both. *)

type config = {
  join_period : float;
  tree_period : float;
  t1 : float;
  t2 : float;
}

(** [default_config] has the same constants as
    {!Hbh.Protocol.default_config}. *)
include
  Proto.Session.S
    with type config := config
     and type jx = unit
     and type tx = Messages.tree_info
     and type extra = Proto.Messages.nothing

(** {1 Inspection} *)

val source_table : t -> Tables.Mft.t option
(** The source's own MFT ([None] before the first join or after it
    decayed); kept alive by join messages alone. *)

val all_tables : t -> (int * Tables.channel_state) list
(** Every router holding state, with its record, ascending by node
    (the verification layer's state-digest input); the source is not
    included. *)
