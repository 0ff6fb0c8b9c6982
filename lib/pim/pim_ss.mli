(** PIM-SS: source-specific reverse shortest-path trees.

    The paper's "PIM-SS" baseline builds the same trees as PIM-SSM: a
    receiver joins by sending a join {e toward the source}, so data
    flows down the {e reverse} of the receiver's shortest path to S.
    Under asymmetric costs that reverse path generally is not the
    shortest path from S to the receiver — the delay penalty HBH
    eliminates.  RPF guarantees each link carries exactly one copy,
    so tree cost equals the number of links in the tree. *)

val build :
  Routing.Table.t ->
  source:int ->
  receivers:int list ->
  Mcast.Distribution.t
(** One data packet's distribution: one copy per tree link, per
    receiver delay measured along the data direction of its reverse
    path.  Raises [Invalid_argument] if some receiver cannot reach the
    source. *)

val state :
  Routing.Table.t ->
  source:int ->
  receivers:int list ->
  Mcast.Metrics.state
(** Control-plane footprint: classic multicast keeps one forwarding
    entry at {e every} on-tree router (reported in [mft_entries];
    [mct_entries] is 0). *)
