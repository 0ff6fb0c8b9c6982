type handle = { mutable cancelled : bool; tag : string; action : unit -> unit }

type tag_stat = { mutable tag_fired : int; sim_times : Obs.Histo.t }

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable fired : int;
  (* [engine.events_fired], bound at creation (the owner contract of
     {!Obs.Metrics.bind}). *)
  m_fired : Obs.Metrics.counter;
  queue : handle Heap.t;
  (* Profiling (opt-in): per-callback-tag counts and sim-time
     histograms, plus wall-clock accounting of [run]. *)
  mutable profiling : bool;
  tags : (string, tag_stat) Hashtbl.t;
  mutable run_wall_s : float;
  mutable runs : int;
}

(* Every engine reports fired events here: the always-on integer add
   that lets any run's metrics dump show how much simulation
   happened. *)
let events_fired_total = Obs.Metrics.hot_counter "engine.events_fired"

(* Fills vacated heap slots; [cancelled] so it can never fire even if
   a bug ever leaked it into the queue. *)
let dummy_handle = { cancelled = true; tag = ""; action = ignore }

let create () =
  {
    clock = 0.0;
    seq = 0;
    fired = 0;
    m_fired = Obs.Metrics.bind events_fired_total;
    queue = Heap.create ~dummy:dummy_handle;
    profiling = false;
    tags = Hashtbl.create 16;
    run_wall_s = 0.0;
    runs = 0;
  }

let now t = t.clock

let schedule_at ?(tag = "") t ~time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)" time
         t.clock);
  let h = { cancelled = false; tag; action = f } in
  Heap.push t.queue time t.seq h;
  t.seq <- t.seq + 1;
  h

(* Same queue position as a [schedule_at] made at this point: the next
   sequence number, so a re-queued handle ties with other events
   exactly as a fresh one would. *)
let requeue t h ~time =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.requeue: time %g is in the past (now %g)" time
         t.clock);
  if h.cancelled then invalid_arg "Engine.requeue: cancelled handle";
  Heap.push t.queue time t.seq h;
  t.seq <- t.seq + 1

let schedule ?tag t ~delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at ?tag t ~time:(t.clock +. delay) f

let cancel h = h.cancelled <- true

let pending t = Heap.size t.queue

let set_profiling t b = t.profiling <- b

let tag_stat t tag =
  match Hashtbl.find_opt t.tags tag with
  | Some s -> s
  | None ->
      let s = { tag_fired = 0; sim_times = Obs.Histo.create () } in
      Hashtbl.replace t.tags tag s;
      s

(* [min_key]/[pop_value] instead of the option-returning [peek]/[pop]:
   the firing loop is the simulator's hottest path and now allocates
   nothing per event beyond what the callback itself does. *)
let rec step t =
  if Heap.is_empty t.queue then false
  else begin
    let time = Heap.min_key t.queue in
    let h = Heap.pop_value t.queue in
    if h.cancelled then step t
    else begin
      t.clock <- time;
      t.fired <- t.fired + 1;
      Obs.Metrics.incr t.m_fired;
      if t.profiling then begin
        let s = tag_stat t h.tag in
        s.tag_fired <- s.tag_fired + 1;
        Obs.Histo.observe s.sim_times time
      end;
      h.action ();
      true
    end
  end

let run ?until ?max_events t =
  (match until with
  | Some limit when limit < t.clock ->
      invalid_arg
        (Printf.sprintf "Engine.run: until %g is in the past (now %g)" limit
           t.clock)
  | _ -> ());
  (* The clock is read only while profiling; a toggle from inside the
     run takes effect at the next one. *)
  let timed = t.profiling in
  let wall_start = if timed then Sys.time () else 0.0 in
  let budget = ref (match max_events with Some m -> m | None -> max_int) in
  let continue = ref true in
  while !continue && !budget > 0 do
    if Heap.is_empty t.queue then continue := false
    else
      match until with
      | Some limit when Heap.min_key t.queue > limit ->
          t.clock <- limit;
          continue := false
      | _ -> if step t then decr budget else continue := false
  done;
  (* If we stopped on the budget or queue exhaustion with a limit,
     leave the clock where the last event put it. *)
  (match until with
  | Some limit when Heap.is_empty t.queue && t.clock < limit -> t.clock <- limit
  | _ -> ());
  if timed then t.run_wall_s <- t.run_wall_s +. (Sys.time () -. wall_start);
  t.runs <- t.runs + 1

let events_fired t = t.fired

(* ---- Checkpoint / restore --------------------------------------------- *)

(* Handle records are shared between the queue and whoever scheduled
   them (timers keep theirs to cancel later), so a snapshot saves each
   pending handle's [cancelled] flag alongside the queue itself and a
   restore resets the flags in place — the shared references then
   observe the restored state.  Profiling aggregates are deliberately
   not restored: they are observability, not simulation state. *)
type snapshot = {
  s_clock : float;
  s_seq : int;
  s_fired : int;
  s_queue : handle Heap.t;
  s_flags : (handle * bool) list;
}

let snapshot t =
  let flags = ref [] in
  Heap.iter (fun h -> flags := (h, h.cancelled) :: !flags) t.queue;
  {
    s_clock = t.clock;
    s_seq = t.seq;
    s_fired = t.fired;
    s_queue = Heap.snapshot t.queue;
    s_flags = !flags;
  }

let restore t s =
  t.clock <- s.s_clock;
  t.seq <- s.s_seq;
  t.fired <- s.s_fired;
  Heap.restore t.queue s.s_queue;
  List.iter (fun (h, c) -> h.cancelled <- c) s.s_flags

type tag_profile = { fired : int; sim_time : Obs.Histo.snapshot }

type profile = {
  events_fired : int;
  pending : int;
  run_wall_s : float;
  runs : int;
  tags : (string * tag_profile) list;
}

let profile (t : t) =
  {
    events_fired = t.fired;
    pending = Heap.size t.queue;
    run_wall_s = t.run_wall_s;
    runs = t.runs;
    tags =
      Hashtbl.fold
        (fun tag s acc ->
          (tag, { fired = s.tag_fired; sim_time = Obs.Histo.snapshot s.sim_times })
          :: acc)
        t.tags []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
  }

let pp_profile ppf p =
  Format.fprintf ppf
    "events_fired=%d pending=%d runs=%d wall=%.3fs@." p.events_fired p.pending
    p.runs p.run_wall_s;
  List.iter
    (fun (tag, tp) ->
      Format.fprintf ppf "  %-24s fired=%-8d sim-time %a@."
        (if tag = "" then "(untagged)" else tag)
        tp.fired Obs.Histo.pp_snapshot tp.sim_time)
    p.tags
