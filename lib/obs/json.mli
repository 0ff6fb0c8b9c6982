(** A minimal JSON tree: writer and parser.

    Just enough JSON for the telemetry export surfaces (metrics
    snapshots, trace dumps, bench results) without pulling an external
    dependency.  The writer emits canonical, strictly valid JSON; the
    parser accepts any document the writer can produce plus ordinary
    whitespace, and is used for the snapshot round-trip tests and for
    tools that read the emitted files back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val pp : Format.formatter -> t -> unit
(** Compact (single-line) rendering. *)

val to_string : t -> string
(** Compact rendering.  Non-finite floats become [null] (JSON has no
    NaN/infinity). *)

val of_string : string -> (t, string) result
(** Parse a complete document; [Error msg] carries the offset of the
    first offending character.  Numbers without [.], [e] or [E] parse
    as [Int], all others as [Float]. *)

(** {1 Accessors} (total: [None] on shape mismatch) *)

val member : string -> t -> t option
(** Field of an [Obj]. *)

val to_int : t -> int option
(** [Int n], or a [Float] that is exactly integral. *)

val to_float : t -> float option
(** [Float] or [Int]. *)

val to_list : t -> t list option
val to_string_opt : t -> string option
