(** Labelled data series, the unit of experiment output.

    A series maps an integer x-value (e.g. group size) to a summary of
    observations.  A set of series over the same x-axis renders as one
    of the paper's figures. *)

type t
(** A single named series, mutable. *)

val create : string -> t
(** [create name] is an empty series. *)

val name : t -> string

val observe : t -> x:int -> float -> unit
(** Record one observation at x-value [x]. *)

val points : t -> (int * float) list
(** [(x, mean)] pairs, sorted by x. *)

(** {1 Collections of series sharing an x-axis} *)

type group
(** An ordered collection of series (one per protocol, typically). *)

val group : ?title:string -> ?x_label:string -> ?y_label:string -> t list -> group

val group_series : group -> t list

val render : Format.formatter -> group -> unit
(** Render the group as an aligned text table: one row per x-value,
    one column per series mean.  This is the "same rows/series the
    paper reports" output format. *)

val to_csv : group -> string
(** CSV with a header row; one line per x-value. *)

val ratio : group -> num:string -> den:string -> (int * float) list
(** [ratio g ~num ~den] is the per-x ratio of two series' means, used
    to express "protocol A outperforms B by N%" claims.  Raises
    [Not_found] if either series name is absent. *)
