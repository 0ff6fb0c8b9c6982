type sink = Event.t -> unit

type t = {
  enabled : bool;
  mutable verbose : bool;
  mutable sinks : sink list; (* reversed attachment order *)
  ring : Event.t Ring.t;
}

let create ?(enabled = false) ?(capacity = 10_000) () =
  { enabled; verbose = false; sinks = []; ring = Ring.create ~capacity }

let verbose t = t.verbose
let set_verbose t b = t.verbose <- b
let on_event t sink = t.sinks <- sink :: t.sinks
let active t = t.enabled || t.sinks <> []

let record t e =
  if t.sinks <> [] then List.iter (fun sink -> sink e) (List.rev t.sinks);
  if t.enabled then Ring.push t.ring e

let event t ~time ~node ?channel kind =
  if active t then record t (Event.make ~time ~node ?channel kind)

let note t ~time ~node msg =
  if active t then record t (Event.make ~time ~node (Event.Note msg))

let notef t ~time ~node fmt =
  if active t then Format.kasprintf (fun msg -> note t ~time ~node msg) fmt
  else
    (* Consume the arguments without ever running the formatter. *)
    Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let last t n = Ring.last t.ring n
let length t = Ring.length t.ring
let dropped t = Ring.dropped t.ring
let high_water t = Ring.high_water t.ring
