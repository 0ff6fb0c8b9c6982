(** Plain-text aligned table rendering for experiment reports. *)

val render :
  Format.formatter -> headers:string list -> string list list -> unit
(** [render ppf ~headers rows] prints an aligned table with a header
    rule.  Short rows are padded with empty cells; extra cells beyond
    the header width are printed as-is. *)

