(** Condensed per-tree measurements and control-plane state counts. *)

type t = {
  cost : int;  (** packet copies over all links (paper's tree cost) *)
  links_used : int;
  avg_delay : float;
  max_delay : float;
  max_stress : int;
  duplicated_links : int;
  receivers : int;
}

val of_distribution : Distribution.t -> t

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
