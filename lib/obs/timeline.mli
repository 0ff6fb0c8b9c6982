(** Simulated-time metric sampling: registered probes are read every
    Δt into an in-memory series, so a fault run's recovery becomes a
    curve instead of a single end-of-run number.

    The timeline is engine-agnostic (obs sits below eventsim): the
    owner calls {!sample} from its own periodic timer, passing the
    simulated instant.  With seeded runs the series — and its NDJSON
    export — is bit-reproducible. *)

type t

type probe = unit -> float
(** Read one value at sampling time.  Probes must be pure reads —
    they run inside the simulation loop and must not perturb it. *)

val create : ?interval:float -> unit -> t
(** [interval] is the intended Δt between samples (default 50.0); the
    timeline records it for display, the owner's timer enforces it.
    Raises [Invalid_argument] when non-positive. *)

val interval : t -> float

val add_probe : t -> string -> probe -> unit
(** Register a named column, in call order.  Raises
    [Invalid_argument] on a duplicate name or after sampling
    started. *)

val sample : t -> now:float -> unit
(** Record one row: read every probe (registration order) at
    simulated time [now]. *)

val to_ndjson : ?tags:(string * string) list -> t -> string
(** One JSON object per row ([{"t":..., "<probe>":..., ...}]), oldest
    first, newline-terminated.  [tags] prepends constant string
    fields (e.g. case labels) to every row. *)

val pp : Format.formatter -> t -> unit
(** Aligned table: a time column plus one column per probe. *)
