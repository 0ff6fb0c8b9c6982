type tree_info = { marked : bool; epoch : int }

type ('jx, 'tx, 'extra) gen = ('jx, 'tx, 'extra) Proto.Messages.t =
  | Join of { channel : Mcast.Channel.t; member : int; ext : 'jx }
  | Tree of { channel : Mcast.Channel.t; target : int; ext : 'tx }
  | Data of { channel : Mcast.Channel.t; seq : int }
  | Extra of { channel : Mcast.Channel.t; extra : 'extra }

type t = (unit, tree_info, Proto.Messages.nothing) gen
