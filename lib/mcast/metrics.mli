(** Control-plane footprint of a recursive-unicast protocol for one
    channel — the REUNITE/HBH argument that only branching routers
    hold forwarding (MFT) state while others hold control-only (MCT)
    state. *)
type state = {
  mct_entries : int;  (** control-table entries across all routers *)
  mft_entries : int;  (** forwarding-table entries across all routers *)
  branching_routers : int;  (** routers holding an MFT *)
  on_tree_routers : int;  (** routers holding any state *)
}
