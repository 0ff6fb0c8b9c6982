(** Timers built on {!Engine}: periodic ticks and one-shots. *)

type t

val every :
  ?tag:string -> Engine.t -> ?start:float -> period:float -> (unit -> unit) -> t
(** [every e ~period f] fires [f] every [period] time units, first at
    [now + start] (default [period]).  [period] must be positive.
    [tag] labels the scheduled callbacks for engine profiling. *)

val after : ?tag:string -> Engine.t -> delay:float -> (unit -> unit) -> t
(** One-shot timer. *)

val stop : t -> unit
(** Idempotent; the timer never fires again. *)
