(** Record of how one data packet of a channel reaches the receivers.

    This is the paper's unit of measurement: every copy of the packet
    crossing every directed link is tallied, together with the delay
    at which each receiver got its copy.  Both the analytical tree
    builders and the event-driven simulator produce one of these, so
    metrics — and tests comparing the two levels — work on a common
    type.

    The paper's {e tree cost} is the total number of copies (a link
    carrying two copies of the same packet counts twice — that is
    REUNITE's duplication pathology); the {e receiver average delay}
    is the mean of the per-receiver delays. *)

type t

val create : source:int -> t

(** {1 Recording} *)

val add_copy : t -> int -> int -> unit
(** [add_copy d u v] tallies one packet copy crossing the directed
    link [u -> v]. *)

val add_path : t -> Topology.Graph.t -> int list -> float
(** [add_path d g p] tallies one copy on every link of path [p] and
    returns the path's cumulated directed delay (convenience for the
    analytical builders). *)

val deliver : t -> receiver:int -> delay:float -> unit
(** Record a receiver's delivery.  If called twice for the same
    receiver, the {e earliest} delay wins (first copy delivered) and
    {!duplicate_deliveries} is incremented. *)

val of_accounting :
  source:int -> ((int * int) * int) list -> (int * float) list -> t
(** A simulated packet's distribution from the network's data
    accounting ([Netsim.Network.data_link_loads] and
    [data_deliveries]): [n] copies per [((u, v), n)], then each
    [(receiver, delay)] through {!deliver}. *)

(** {1 Metrics} *)

val cost : t -> int
(** Total packet copies over all links — the paper's tree cost. *)

val copies : t -> int -> int -> int
(** Copies on a directed link. *)

val links_used : t -> int
(** Number of distinct directed links carrying at least one copy. *)

val duplicated_links : t -> int
(** Distinct directed links carrying more than one copy. *)

val max_stress : t -> int
(** Maximum copies on any one directed link (1 = RPF-clean tree). *)

val receivers : t -> int list
(** Receivers that got the packet, ascending. *)

val delay : t -> int -> float option
(** Delivery delay of one receiver. *)

val avg_delay : t -> float
(** Mean over receivers; [nan] if none. *)

val max_delay : t -> float

val duplicate_deliveries : t -> int
(** Extra copies delivered to receivers that already had one. *)

val link_loads : t -> ((int * int) * int) list
(** All [(link, copies)] pairs, lexicographic order. *)

val equal_shape : t -> t -> bool
(** Same source, same per-link copy counts and same receiver set —
    used to check the event-driven protocols against the analytical
    trees. *)

val pp : Format.formatter -> t -> unit

(** {1 Path-union trees} *)

type distribution := t

(** A tree that is the union of unicast paths, one copy per union link.

    HBH's converged tree is the union of the forward shortest paths
    from the source; PIM-SS's is the union of the receivers' reversed
    join paths, and PIM-SM's shared leg the same union rooted at the
    RP.  The three models differ only in the paths they hand to
    {!create}.  Distinct links are held as the packed ints that key
    the link loads; the on-tree routers and their degrees are computed
    only by {!routers}, so a build does not pay for them. *)
module Union : sig
  type t

  val create : Topology.Graph.t -> (int * int list) list -> t
  (** [create g [(r, p); ...]]: the union of the data paths [p], each
      leading to receiver [r], in delivery order. *)

  val links : t -> (int * int) list
  (** Distinct directed links of the union, ascending. *)

  val deliver : ?lead:float -> t -> distribution -> unit
  (** One copy per union link, then each receiver delivered at [lead]
      (default 0) plus its path's delay, in the order given to
      {!create}. *)

  type router = { router : int; out_degree : int; in_degree : int }
  (** An on-tree router with its count of outgoing and incoming union
      links. *)

  val routers : t -> router list
  (** Every router that ends a union link, ascending. *)
end
