(** Incremental topology construction.

    A builder accumulates nodes and links and produces an immutable
    {!Graph.t}.  Node ids are assigned densely in creation order,
    which matches the paper's numbering convention (routers first,
    hosts after). *)

type t

val create : unit -> t

val add_router : t -> int
(** Returns the new router's id. *)

val add_routers : t -> int -> int list
(** [add_routers b k] adds [k] routers, returning their ids. *)

val add_host : t -> router:int -> ?cost:int -> ?cost_back:int -> unit -> int
(** [add_host b ~router ()] adds a host attached to [router] by a link
    with the given directed costs (both default to 1), returning the
    host id.  Raises [Invalid_argument] on a cost below 1. *)

val add_link : t -> int -> int -> ?cost:int -> ?cost_back:int -> unit -> unit
(** [add_link b u v ()] joins two existing routers.  Costs default to
    1.  Raises [Invalid_argument] on unknown nodes, self-loops,
    duplicate links or a cost below 1. *)

val has_link : t -> int -> int -> bool

val build : t -> Graph.t
(** Finalize.  The builder remains usable afterwards. *)

val attach_host_per_router : t -> unit
(** Add one host to every router currently in the builder — the
    paper's "one potential receiver per node" setup. *)
