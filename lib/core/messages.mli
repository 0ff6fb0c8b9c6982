(** HBH wire messages (Section 3.1): the runtime's shared
    {!Proto.Messages.t} vocabulary instantiated with HBH's extensions,
    re-exported so the constructors stay ordinary HBH values.

    All four travel as unicast {!Netsim.Packet}s:

    - [Join]: receiver → source, periodic; [ext] (the "first" flag)
      marks the initial join of a membership episode, which is never
      intercepted (Appendix A) so the source always learns of new
      receivers.  Branching routers re-issue joins with
      [member = themselves].
    - [Tree]: multicast hop-by-hop from the source, addressed to an
      MFT entry [target]; [ext] is the last branching router
      (the "from branch") that (re-)emitted it — the node a resulting
      fusion must be addressed to, i.e. the current owner of
      [target]'s entry.
    - [Extra] carries HBH's {!fusion}: from a router that sees several
      receivers' tree messages converge, to the upstream branching
      node; lists the members whose entries should be marked there.
    - [Data]: a channel payload, always addressed to the next
      branching node (HBH's n+1-copies scheme). *)

type fusion = { members : int list; sender : int }

type ('jx, 'tx, 'extra) gen = ('jx, 'tx, 'extra) Proto.Messages.t =
  | Join of { channel : Mcast.Channel.t; member : int; ext : 'jx }
  | Tree of { channel : Mcast.Channel.t; target : int; ext : 'tx }
  | Data of { channel : Mcast.Channel.t; seq : int }
  | Extra of { channel : Mcast.Channel.t; extra : 'extra }
(** {!Proto.Messages.t} re-exported so the constructors live in this
    namespace. *)

type t = (bool, int, fusion) gen
