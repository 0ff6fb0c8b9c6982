(** Low-cardinality label sets attached to metric series (channel,
    protocol, router class, ...).

    A set is canonical: keys sorted, unique — so construction order
    never distinguishes two series.  Keep cardinality low (a handful
    of values per key): every distinct set materializes one series in
    the registry. *)

type t

val empty : t

val make : (string * string) list -> t
(** Canonicalize a key/value list.  Raises [Invalid_argument] on a
    duplicate key or a key that is not [[A-Za-z_][A-Za-z0-9_]*]. *)

val v : (string * string) list -> t
(** Alias of {!make} for terse call sites. *)

val bindings : t -> (string * string) list
(** Sorted by key. *)

val escape_value : string -> string
(** Escape backslash, quote and newline for use inside a quoted
    OpenMetrics label value. *)

val series_name : string -> t -> string
(** [series_name name t] is [name] followed by [t] in OpenMetrics label
    syntax — [{k="v",k2="v2"}], with quote, backslash and newline
    escaped in values; nothing for the empty set — the registry key a
    labeled instrument is filed under. *)
