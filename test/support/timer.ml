module Engine = Eventsim.Engine

type t = {
  engine : Engine.t;
  tag : string option;
  action : unit -> unit;
  mutable handle : Engine.handle option;
  mutable stopped : bool;
}

let arm t ~delay body =
  t.handle <- Some (Engine.schedule ?tag:t.tag t.engine ~delay body)

let every ?tag engine ?start ~period f =
  if period <= 0.0 then invalid_arg "Timer.every: period must be positive";
  let start = match start with Some s -> s | None -> period in
  let t = { engine; tag; action = f; handle = None; stopped = false } in
  let rec tick () =
    if not t.stopped then begin
      t.action ();
      if not t.stopped then arm t ~delay:period tick
    end
  in
  arm t ~delay:start tick;
  t

let after ?tag engine ~delay f =
  let t = { engine; tag; action = f; handle = None; stopped = false } in
  arm t ~delay (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        t.action ()
      end);
  t

let stop t =
  t.stopped <- true;
  match t.handle with
  | Some h ->
      Engine.cancel h;
      t.handle <- None
  | None -> ()
