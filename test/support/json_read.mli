(** Reading back what {!Obs.Json} and {!Obs.Metrics} write. *)

val of_string : string -> (Obs.Json.t, string) result
(** Parse a complete document; [Error msg] carries the offset of the
    first offending character.  Numbers without [.], [e] or [E] parse
    as [Int], all others as [Float]. *)

(** {1 Accessors} (total: [None] on shape mismatch) *)

val member : string -> Obs.Json.t -> Obs.Json.t option
(** Field of an [Obj]. *)

val to_int : Obs.Json.t -> int option
(** [Int n], or a [Float] that is exactly integral. *)

val to_float : Obs.Json.t -> float option
(** [Float] or [Int]. *)

val to_list : Obs.Json.t -> Obs.Json.t list option
val to_string_opt : Obs.Json.t -> string option

val snapshot_of_json : Obs.Json.t -> (Obs.Metrics.snapshot, string) result
(** Inverse of {!Obs.Metrics.snapshot_to_json} (modulo float printing
    precision). *)
