(** Standalone timer chains on {!Eventsim.Engine}: periodic ticks and
    one-shots, one engine event per timer per fire.  The reference
    {!Eventsim.Wheel} is checked against: a wheel entry fires when and
    in the order the equivalent [every] chain would. *)

type t

val every :
  ?tag:string ->
  Eventsim.Engine.t ->
  ?start:float ->
  period:float ->
  (unit -> unit) ->
  t
(** [every e ~period f] fires [f] every [period] time units, first at
    [now + start] (default [period]).  [period] must be positive.
    [tag] labels the scheduled callbacks for engine profiling. *)

val after :
  ?tag:string -> Eventsim.Engine.t -> delay:float -> (unit -> unit) -> t
(** One-shot timer. *)

val stop : t -> unit
(** Idempotent; the timer never fires again. *)
