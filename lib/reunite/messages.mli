(** REUNITE wire messages (Stoica et al., INFOCOM 2000): the runtime's
    shared {!Proto.Messages.t} vocabulary instantiated with REUNITE's
    extensions, re-exported so the constructors stay ordinary REUNITE
    values.

    - [Join]: receiver → source, periodic.  Unlike HBH there is no
      "first" flag (the join extension slot is [unit]): {e any} router
      already on the tree captures any join, which is exactly what
      exposes the protocol to the asymmetry pathologies of
      Section 2.3.
    - [Tree]: source → receivers, periodic, forked at branching
      routers; [ext.marked] announces that the target's flow is about
      to stop (the teardown signal after a departure — Figure 2(b)),
      [ext.epoch] gates forking so orphaned branching structures
      cannot keep themselves alive.
    - [Data]: payload, addressed to [MFT.dst] and rewritten at
      branching routers.
    - [Extra] is uninhabited: REUNITE has no fourth message class. *)

type tree_info = { marked : bool; epoch : int }

type ('jx, 'tx, 'extra) gen = ('jx, 'tx, 'extra) Proto.Messages.t =
  | Join of { channel : Mcast.Channel.t; member : int; ext : 'jx }
  | Tree of { channel : Mcast.Channel.t; target : int; ext : 'tx }
  | Data of { channel : Mcast.Channel.t; seq : int }
  | Extra of { channel : Mcast.Channel.t; extra : 'extra }
(** {!Proto.Messages.t} re-exported so the constructors live in this
    namespace. *)

type t = (unit, tree_info, Proto.Messages.nothing) gen
