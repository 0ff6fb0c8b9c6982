(** A minimal JSON tree and its writer.

    Just enough JSON for the telemetry export surfaces (metrics
    snapshots, timelines, bench results) without pulling an external
    dependency.  The writer emits canonical, strictly valid JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering.  Non-finite floats become [null] (JSON has no
    NaN/infinity). *)
