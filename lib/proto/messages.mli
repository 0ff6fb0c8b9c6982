(** The shared control-message vocabulary of the protocol runtime.

    All four stacks speak the same three-verb language — periodic
    joins toward the source, periodic tree messages away from it, and
    sequenced data — differing only in what they attach to each verb.
    The type is parameterized accordingly: ['jx] rides on joins (HBH's
    [first] flag), ['tx] on tree messages (HBH's owning branch,
    REUNITE's mark/epoch), and ['extra] is a whole per-protocol
    message class (HBH's fusion).  Protocols re-export an instance so
    [Hbh.Messages.Join], [Reunite.Messages.Data] etc. remain ordinary
    constructors of one underlying runtime type.

    Slots a protocol does not use are [unit]; message classes it does
    not have are {!nothing}, which makes the corresponding
    constructor uninhabited rather than merely unused. *)

type nothing = |
(** The empty type: a ['tx] or ['extra] instantiation that rules the
    constructor out statically. *)

type ('jx, 'tx, 'extra) t =
  | Join of { channel : Mcast.Channel.t; member : int; ext : 'jx }
  | Tree of { channel : Mcast.Channel.t; target : int; ext : 'tx }
  | Data of { channel : Mcast.Channel.t; seq : int }
  | Extra of { channel : Mcast.Channel.t; extra : 'extra }

type kind = Join_msg | Tree_msg | Data_msg | Extra_msg
(** Message class, the key of the runtime's per-class overhead
    counters. *)

val channel : (_, _, _) t -> Mcast.Channel.t
val kind : (_, _, _) t -> kind
