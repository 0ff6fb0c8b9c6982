(** PIM-SM: shared trees centered on a rendez-vous point.

    As in the paper's NS setup, only the shared tree is modelled (no
    switch to a source tree).  The source unicast-encapsulates data to
    the RP (register tunnel) — so the S→RP leg follows the true
    shortest path and its delay is minimal — and the RP forwards down
    the shared tree, which is the reverse SPT of the receivers' joins
    toward the RP.  Tree cost counts the encapsulated leg's copies
    {e plus} one copy per shared-tree link: a link used by both legs
    carries two copies, exactly as a register-tunnelled packet and its
    native forwarding would. *)

val build :
  Routing.Table.t ->
  source:int ->
  rp:int ->
  receivers:int list ->
  Mcast.Distribution.t
(** Raises [Invalid_argument] if the source cannot reach the RP or a
    receiver cannot reach it. *)

val state :
  Routing.Table.t ->
  rp:int ->
  receivers:int list ->
  Mcast.Metrics.state
(** One star-G entry per on-tree router. *)
