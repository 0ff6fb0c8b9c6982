(** IPv4 class-D (multicast) group addresses.

    HBH keeps IP Multicast compatibility by identifying a channel as
    [<S, G>] where [G] is a class-D address (224.0.0.0/4) allocated by
    the source.  Because [S] is globally unique, [G] only has to be
    unique per source — this module provides that per-source
    allocator. *)

type t
(** A class-D address. *)

val of_int32 : int32 -> t
(** Raises [Invalid_argument] if the value is not in 224.0.0.0/4. *)

val to_int32 : t -> int32

val of_string : string -> t
(** Dotted-quad parse, e.g. ["232.1.1.7"].  Raises [Invalid_argument]
    on a malformed or non-class-D string. *)

val to_string : t -> string

(** {1 Per-source allocation} *)

type allocator

val allocator : unit -> allocator
(** Allocates successive addresses in the SSM block 232.0.0.0/8. *)

val allocate : allocator -> t
(** Raises [Failure] if the block is exhausted (2^24 addresses). *)
