(* Tests for the discrete-event engine: ordering, cancellation, time
   limits, periodic and one-shot timers. *)

module E = Eventsim.Engine
module T = Timer

let test_clock_starts_at_zero () =
  let e = E.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (E.now e)

let test_events_fire_in_time_order () =
  let e = E.create () in
  let log = ref [] in
  ignore (E.schedule e ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (E.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (E.schedule e ~delay:2.0 (fun () -> log := 2 :: !log));
  E.run e;
  Alcotest.(check (list int)) "ascending by time" [ 1; 2; 3 ] (List.rev !log)

let test_same_time_fifo () =
  let e = E.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (E.schedule e ~delay:1.0 (fun () -> log := i :: !log))
  done;
  E.run e;
  Alcotest.(check (list int)) "fifo within an instant" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_clock_advances () =
  let e = E.create () in
  let seen = ref 0.0 in
  ignore (E.schedule e ~delay:5.5 (fun () -> seen := E.now e));
  E.run e;
  Alcotest.(check (float 0.0)) "callback sees its time" 5.5 !seen;
  Alcotest.(check (float 0.0)) "clock rests at last event" 5.5 (E.now e)

let test_cancel () =
  let e = E.create () in
  let fired = ref false in
  let h = E.schedule e ~delay:1.0 (fun () -> fired := true) in
  E.cancel h;
  E.run e;
  Alcotest.(check bool) "cancelled event silent" false !fired;
  Alcotest.(check int) "not counted as fired" 0 (E.events_fired e)

let test_schedule_from_callback () =
  let e = E.create () in
  let log = ref [] in
  ignore
    (E.schedule e ~delay:1.0 (fun () ->
         log := "a" :: !log;
         ignore (E.schedule e ~delay:1.0 (fun () -> log := "b" :: !log))));
  E.run e;
  Alcotest.(check (list string)) "chained" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check (float 0.0)) "time 2" 2.0 (E.now e)

let test_run_until () =
  let e = E.create () in
  let fired = ref [] in
  List.iter
    (fun d -> ignore (E.schedule e ~delay:d (fun () -> fired := d :: !fired)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  E.run ~until:2.5 e;
  Alcotest.(check (list (float 0.0))) "only early events" [ 1.0; 2.0 ]
    (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock at limit" 2.5 (E.now e);
  E.run e;
  Alcotest.(check int) "rest fire later" 4 (List.length !fired)

let test_run_until_inclusive () =
  let e = E.create () in
  let fired = ref false in
  ignore (E.schedule e ~delay:2.0 (fun () -> fired := true));
  E.run ~until:2.0 e;
  Alcotest.(check bool) "event exactly at limit fires" true !fired

let test_max_events () =
  let e = E.create () in
  let count = ref 0 in
  let rec loop () =
    incr count;
    ignore (E.schedule e ~delay:1.0 loop)
  in
  ignore (E.schedule e ~delay:1.0 loop);
  E.run ~max_events:10 e;
  Alcotest.(check int) "stopped by budget" 10 !count

let test_past_scheduling_rejected () =
  let e = E.create () in
  ignore (E.schedule e ~delay:5.0 (fun () -> ()));
  E.run e;
  Alcotest.(check bool) "negative delay" true
    (try
       ignore (E.schedule e ~delay:(-1.0) (fun () -> ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "past absolute time" true
    (try
       ignore (E.schedule_at e ~time:1.0 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* A limit before the clock is refused and leaves the clock alone: a
   run never moves simulated time backwards. *)
let test_run_until_past_rejected () =
  let e = E.create () in
  ignore (E.schedule_at e ~time:100.0 (fun () -> ()));
  E.run ~until:50.0 e;
  Alcotest.(check (float 0.0)) "clock at first limit" 50.0 (E.now e);
  Alcotest.(check bool) "earlier limit raises" true
    (try
       E.run ~until:20.0 e;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (float 0.0)) "clock unchanged" 50.0 (E.now e);
  E.run ~until:50.0 e;
  Alcotest.(check int) "limit at now is a no-op" 1 (E.pending e)

(* ---- Timers ------------------------------------------------------------ *)

let test_periodic_timer () =
  let e = E.create () in
  let ticks = ref [] in
  let t = T.every e ~period:10.0 (fun () -> ticks := E.now e :: !ticks) in
  E.run ~until:35.0 e;
  T.stop t;
  Alcotest.(check (list (float 0.0))) "three ticks" [ 10.0; 20.0; 30.0 ]
    (List.rev !ticks)

let test_periodic_with_start () =
  let e = E.create () in
  let ticks = ref 0 in
  ignore (T.every e ~start:1.0 ~period:10.0 (fun () -> incr ticks));
  E.run ~until:22.0 e;
  Alcotest.(check int) "ticks at 1, 11, 21" 3 !ticks

let test_timer_stop () =
  let e = E.create () in
  let ticks = ref 0 in
  let t = T.every e ~period:1.0 (fun () -> incr ticks) in
  ignore (E.schedule e ~delay:3.5 (fun () -> T.stop t));
  E.run ~until:10.0 e;
  Alcotest.(check int) "stopped after 3 ticks" 3 !ticks

let test_timer_stop_from_own_callback () =
  let e = E.create () in
  let ticks = ref 0 in
  let tr = ref None in
  let t =
    T.every e ~period:1.0 (fun () ->
        incr ticks;
        if !ticks = 2 then T.stop (Option.get !tr))
  in
  tr := Some t;
  E.run ~until:10.0 e;
  Alcotest.(check int) "self-stop works" 2 !ticks

let test_oneshot () =
  let e = E.create () in
  let fired = ref 0 in
  ignore (T.after e ~delay:2.0 (fun () -> incr fired));
  E.run ~until:10.0 e;
  Alcotest.(check int) "exactly once" 1 !fired

(* ---- Heap -------------------------------------------------------------- *)

(* The minimum entry's key and payload, [None] on an empty heap. *)
let heap_pop h =
  if Eventsim.Heap.is_empty h then None
  else
    let k = Eventsim.Heap.min_key h in
    Some (k, Eventsim.Heap.pop_value h)

let test_heap_ordering () =
  let h = Eventsim.Heap.create ~dummy:0 in
  List.iteri (fun i k -> Eventsim.Heap.push h k i i) [ 5.0; 1.0; 3.0; 1.0; 4.0 ];
  let popped = ref [] in
  let rec drain () =
    match heap_pop h with
    | Some (k, seq) ->
        popped := (k, seq) :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (pair (float 0.0) int)))
    "keys ascending, seq breaks ties"
    [ (1.0, 1); (1.0, 3); (3.0, 2); (4.0, 4); (5.0, 0) ]
    (List.rev !popped)

(* Regression: pop used to leave the vacated slot live, so the heap
   kept popped payloads (and whatever their closures captured)
   reachable until the cell was overwritten. *)
let test_heap_releases_payloads () =
  (* The dummy must be a distinct object: it fills vacated slots, so a
     dummy aliasing a payload would keep that payload alive. *)
  let h = Eventsim.Heap.create ~dummy:(ref 0) in
  let w = Weak.create 2 in
  let fill () =
    let a = ref 1 and b = ref 2 in
    Eventsim.Heap.push h 1.0 0 a;
    Eventsim.Heap.push h 2.0 1 b;
    Weak.set w 0 (Some a);
    Weak.set w 1 (Some b)
  in
  fill ();
  ignore (Eventsim.Heap.pop_value h);
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" true (Weak.get w 0 = None);
  Alcotest.(check bool) "queued payload retained" true (Weak.get w 1 <> None);
  Alcotest.(check int) "one entry left" 1 (Eventsim.Heap.size h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in order" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (float_range 0.0 100.0))
    (fun keys ->
      let h = Eventsim.Heap.create ~dummy:() in
      List.iteri (fun i k -> Eventsim.Heap.push h k i ()) keys;
      let rec drain acc =
        match heap_pop h with
        | Some (k, ()) -> drain (k :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* A fired handle re-queued at an instant ties with the events already
   there exactly as a fresh [schedule_at] made at that point would: after
   those scheduled before, before those scheduled after. *)
let test_requeue_order () =
  let e = E.create () in
  let log = ref [] in
  let h = E.schedule e ~delay:1.0 (fun () -> log := "h" :: !log) in
  Alcotest.(check bool) "h fires" true (E.step e);
  ignore (E.schedule_at e ~time:5.0 (fun () -> log := "before" :: !log));
  E.requeue e h ~time:5.0;
  ignore (E.schedule_at e ~time:5.0 (fun () -> log := "after" :: !log));
  E.run e;
  Alcotest.(check (list string)) "fresh-event position"
    [ "h"; "before"; "h"; "after" ] (List.rev !log);
  Alcotest.check_raises "past time rejected"
    (Invalid_argument "Engine.requeue: time 1 is in the past (now 5)")
    (fun () -> E.requeue e h ~time:1.0)

(* ---- Wheel ------------------------------------------------------- *)

module W = Eventsim.Wheel

(* Entries armed in the same engine instant share one bucket, so a
   single engine event fires them all — the O(1)-events-per-period
   claim, observed through [E.step]. *)
let test_wheel_coalesces () =
  let e = E.create () in
  let w = W.create e in
  let log = ref [] in
  for i = 1 to 3 do
    ignore (W.every w ~period:5.0 (fun () -> log := i :: !log))
  done;
  Alcotest.(check bool) "one event fires the whole bucket" true (E.step e);
  Alcotest.(check (float 0.0)) "at the shared deadline" 5.0 (E.now e);
  Alcotest.(check (list int)) "members fire in insertion order" [ 1; 2; 3 ]
    (List.rev !log)

let test_wheel_matches_timer () =
  let fires run =
    let e = E.create () in
    let log = ref [] in
    run e (fun () -> log := E.now e :: !log);
    E.run ~until:17.0 e;
    List.rev !log
  in
  let wheel =
    fires (fun e f -> ignore (W.every (W.create e) ~start:2.0 ~period:5.0 f))
  in
  let timer =
    fires (fun e f -> ignore (T.every e ~start:2.0 ~period:5.0 f))
  in
  Alcotest.(check (list (float 0.0))) "identical deadline sequence"
    timer wheel;
  Alcotest.(check (list (float 0.0))) "2, then +5 from each fire"
    [ 2.0; 7.0; 12.0; 17.0 ] wheel

let test_wheel_stop () =
  let e = E.create () in
  let w = W.create e in
  let log = ref [] in
  let fires = ref 0 in
  let a = W.every w ~period:5.0 (fun () -> log := "a" :: !log) in
  let rec b_entry =
    lazy
      (W.every w ~period:5.0 (fun () ->
           incr fires;
           log := "b" :: !log;
           if !fires >= 2 then W.stop (Lazy.force b_entry)))
  in
  ignore (Lazy.force b_entry);
  W.stop a;
  Alcotest.(check bool) "stopped entry inactive" false (W.active a);
  E.run ~until:40.0 e;
  Alcotest.(check (list string)) "a never fires; b stops itself after 2"
    [ "b"; "b" ] (List.rev !log);
  Alcotest.(check bool) "self-stopped entry inactive" false
    (W.active (Lazy.force b_entry))

let test_wheel_save_restore () =
  let e = E.create () in
  let w = W.create e in
  let log = ref [] in
  let a = W.every w ~period:5.0 (fun () -> log := ("a", E.now e) :: !log) in
  let es = E.snapshot e in
  let ws = W.save w in
  E.run ~until:12.0 e;
  let first = List.rev !log in
  Alcotest.(check int) "two fires before rewind" 2 (List.length first);
  (* Diverge: kill the saved entry, arm a new one... *)
  W.stop a;
  ignore (W.every w ~period:3.0 (fun () -> log := ("b", E.now e) :: !log));
  (* ...then rewind (engine first, wheel second): the stop is undone,
     the post-save entry is dropped, and the run replays exactly. *)
  E.restore e es;
  W.restore w ws;
  Alcotest.(check bool) "restored entry active again" true (W.active a);
  log := [];
  E.run ~until:12.0 e;
  Alcotest.(check bool) "replay is bit-identical" true
    (List.rev !log = first)

(* A restore must put back each armed bucket's deadline and birth as
   well as its members: a bucket re-armed in place after the snapshot
   has a new deadline in the same record, and firing it at its saved
   engine time with that deadline would shift every later re-arm.  The
   snapshot holds entries at three phases and two periods; after it,
   one entry of a shared bucket stops and the run goes on for many
   periods, so every bucket fires and is re-armed in place several
   times.  Each replay from the one snapshot repeats the stop and must
   fire the same (time, entry) trace from as many engine events: an
   arm made at the snapshot's instant joins the bucket born there
   ("e"), which only its restored birth tells apart. *)
let test_wheel_restore_reused_buckets () =
  let e = E.create () in
  let w = W.create e in
  let log = ref [] in
  let every name ~start ~period =
    W.every w ~start ~period (fun () -> log := (E.now e, name) :: !log)
  in
  ignore (every "a" ~start:5.0 ~period:10.0);
  let b = every "b" ~start:5.0 ~period:10.0 in
  ignore (every "c" ~start:5.0 ~period:7.0);
  ignore (every "d" ~start:2.0 ~period:10.0);
  E.run ~until:13.0 e;
  ignore (every "e" ~start:4.0 ~period:10.0);
  let es = E.snapshot e in
  let ws = W.save w in
  let run () =
    log := [];
    let fired = E.events_fired e in
    W.stop b;
    ignore (every "late" ~start:1.0 ~period:3.0);
    ignore (every "joins e" ~start:4.0 ~period:10.0);
    E.run ~until:120.0 e;
    (List.rev !log, E.events_fired e - fired)
  in
  let first = run () in
  let trace = fst first in
  Alcotest.(check bool) "b stopped" false (List.exists (fun (_, n) -> n = "b") trace);
  Alcotest.(check int) "a fires every period" 11
    (List.length (List.filter (fun (_, n) -> n = "a") trace));
  for round = 1 to 2 do
    E.restore e es;
    W.restore w ws;
    Alcotest.(check bool) (Printf.sprintf "b active again (%d)" round) true (W.active b);
    Alcotest.(check (pair (list (pair (float 0.0) string)) int))
      (Printf.sprintf "replay %d fires the same trace" round)
      first (run ())
  done

(* A random timer program, run once on two wheels sharing one engine
   and once on standalone [Timer.every] chains.  Entry [k] lives on
   wheel [wheel] and is armed by an engine event at [arm] (first fire
   [start] later, then every [period]); a [stop] event may stop it,
   and each fire at or after [kill_at] stops entry [victim] (itself
   included, on either wheel).  Arms land at shared instants with
   shared deadlines, so buckets merge, fire, are re-armed in place and
   lose members mid-fire.  Wheel 1's deadlines sit a quarter past the
   integers, so its arms interleave with wheel 0's in the same instants
   but never with a deadline wheel 0 could merge on: the shape of a
   session's mux wheel beside an experiment's probe wheels.  Messages
   are foreign events: each is sent at a half-integer time, when no arm
   happens, and lands on an integer or a quarter-past one, where it can
   tie with either wheel's deadlines.  A bucket armed before such a
   message must fire before it, and an arm made after it must fire
   after it: which is why only buckets born at the current instant may
   take a merge. *)
type timed_entry = {
  wheel : int;
  arm : float;
  start : float;
  period : float;
  stop : float option;
  victim : int;
  kill_at : float;
}

type timer_prog = {
  entries : timed_entry list;
  messages : (float * float) list;  (** send time, delay *)
}

let gen_timer_prog =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    list_repeat n
      (int_range 0 1 >>= fun wheel ->
       oneofl [ 0.0; 1.0; 2.0; 3.0; 5.0 ] >>= fun arm ->
       oneofl [ 0.0; 1.0; 2.0; 3.0; 4.0 ] >>= fun start ->
       let start = if wheel = 1 then start +. 0.25 else start in
       oneofl [ 2.0; 3.0; 4.0; 6.0 ] >>= fun period ->
       opt (map float_of_int (int_range 3 30)) >>= fun stop ->
       int_range 0 (n - 1) >>= fun victim ->
       map float_of_int (int_range 5 60) >>= fun kill_at ->
       return { wheel; arm; start; period; stop; victim; kill_at })
    >>= fun entries ->
    list_size (int_range 0 6)
      (pair
         (map (fun k -> float_of_int k +. 0.5) (int_range 0 20))
         (map2 ( +. )
            (map float_of_int (int_range 0 4))
            (oneofl [ 0.5; 0.75 ])))
    >>= fun messages -> return { entries; messages })

(* Schedules the program's events on [e]; [arm k] and [stop k] act on
   entry [k]'s current timer.  A fire logs [(time, k)], a message
   [(time, -1)]. *)
let load_timer_prog e prog ~log ~arm ~stop =
  List.iteri
    (fun k p ->
      ignore
        (E.schedule_at e ~time:p.arm (fun () ->
             arm k ~start:p.start ~period:p.period (fun () ->
                 log := (E.now e, k) :: !log;
                 if E.now e >= p.kill_at then stop p.victim)));
      Option.iter
        (fun time -> ignore (E.schedule_at e ~time (fun () -> stop k)))
        p.stop)
    prog.entries;
  List.iter
    (fun (time, delay) ->
      ignore
        (E.schedule_at e ~time (fun () ->
             ignore
               (E.schedule e ~delay (fun () -> log := (E.now e, -1) :: !log)))))
    prog.messages

let arbitrary_timer_prog =
  QCheck.make
    ~print:(fun prog ->
      String.concat "; "
        (List.map
           (fun p ->
             Printf.sprintf
               "wheel %d arm %g start %g period %g stop %s kill %d at %g"
               p.wheel p.arm p.start p.period
               (match p.stop with Some t -> Printf.sprintf "%g" t | None -> "-")
               p.victim p.kill_at)
           prog.entries
        @ List.map
            (fun (t, d) -> Printf.sprintf "message at %g delay %g" t d)
            prog.messages))
    gen_timer_prog

(* The program on the wheels [ws] (one per wheel index); returns the
   entry slots, which an owner restores along with the wheels. *)
let load_on_wheels e ws prog ~log =
  let wheel = Array.of_list (List.map (fun p -> ws.(p.wheel)) prog.entries) in
  let hs = Array.make (List.length prog.entries) None in
  load_timer_prog e prog ~log
    ~arm:(fun k ~start ~period f ->
      hs.(k) <- Some (W.every wheel.(k) ~start ~period f))
    ~stop:(fun k -> Option.iter W.stop hs.(k));
  hs

let prop_wheel_is_timers =
  QCheck.Test.make ~count:500 ~name:"wheel fires as standalone timers do"
    arbitrary_timer_prog (fun prog ->
      let fires load =
        let e = E.create () in
        let log = ref [] in
        load e ~log;
        E.run ~until:70.0 e;
        List.rev !log
      in
      fires (fun e ~log ->
          ignore (load_on_wheels e [| W.create e; W.create e |] prog ~log))
      = fires (fun e ~log ->
            let hs = Array.make (List.length prog.entries) None in
            load_timer_prog e prog ~log
              ~arm:(fun k ~start ~period f ->
                hs.(k) <- Some (T.every e ~start ~period f))
              ~stop:(fun k -> Option.iter T.stop hs.(k))))

(* Checkpointed at a random instant, the program replays the same
   fires from the snapshot, twice. *)
let prop_wheel_replays =
  QCheck.Test.make ~count:300 ~name:"wheel replays from a snapshot"
    QCheck.(pair arbitrary_timer_prog (int_range 0 20))
    (fun (prog, at) ->
      let e = E.create () in
      let ws = [| W.create e; W.create e |] in
      let log = ref [] in
      let hs = load_on_wheels e ws prog ~log in
      E.run ~until:(float_of_int at) e;
      let es = E.snapshot e and saved = Array.map W.save ws in
      let saved_hs = Array.copy hs in
      let rest () =
        log := [];
        E.run ~until:70.0 e;
        List.rev !log
      in
      let first = rest () in
      List.for_all
        (fun () ->
          E.restore e es;
          Array.iter2 W.restore ws saved;
          Array.blit saved_hs 0 hs 0 (Array.length hs);
          rest () = first)
        [ (); () ])

(* Minor words per call of [f], after 1000 warm-up calls have grown
   whatever arrays it fills. *)
let words_per ~iters f =
  for _ = 1 to 1000 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

(* A steady-state period: a bucket whose members share a period fires,
   and every member re-arms into the same bucket record, re-queued in
   place.  The 4 words are the engine's (the clock [step] stores, 2)
   and the deadline handed to [Engine.requeue] (2), whatever the
   bucket's size; a new bucket per period cost 47 words with one
   member and 803 with 64. *)
let test_wheel_period_alloc () =
  List.iter
    (fun k ->
      let e = E.create () in
      let w = W.create e in
      let nop () = () in
      for _ = 1 to k do
        ignore (W.every w ~period:5.0 nop)
      done;
      let period () = ignore (E.step e : bool) in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%d members" k)
        4.0
        (words_per ~iters:100_000 period))
    [ 1; 8; 64 ]

let () =
  Alcotest.run "eventsim"
    [
      ( "engine",
        [
          Alcotest.test_case "zero clock" `Quick test_clock_starts_at_zero;
          Alcotest.test_case "time order" `Quick test_events_fire_in_time_order;
          Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "schedule from callback" `Quick test_schedule_from_callback;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "until inclusive" `Quick test_run_until_inclusive;
          Alcotest.test_case "max events" `Quick test_max_events;
          Alcotest.test_case "past rejected" `Quick test_past_scheduling_rejected;
          Alcotest.test_case "run until the past rejected" `Quick
            test_run_until_past_rejected;
          Alcotest.test_case "requeue ties like a fresh event" `Quick
            test_requeue_order;
        ] );
      ( "timer",
        [
          Alcotest.test_case "periodic" `Quick test_periodic_timer;
          Alcotest.test_case "custom start" `Quick test_periodic_with_start;
          Alcotest.test_case "stop" `Quick test_timer_stop;
          Alcotest.test_case "self stop" `Quick test_timer_stop_from_own_callback;
          Alcotest.test_case "oneshot" `Quick test_oneshot;
        ] );
      ( "wheel",
        [
          Alcotest.test_case "coalesces same-instant arms" `Quick
            test_wheel_coalesces;
          Alcotest.test_case "matches Timer.every deadlines" `Quick
            test_wheel_matches_timer;
          Alcotest.test_case "stop, also from own action" `Quick
            test_wheel_stop;
          Alcotest.test_case "save/restore rewinds entries" `Quick
            test_wheel_save_restore;
          Alcotest.test_case "restore across buckets re-armed in place" `Quick
            test_wheel_restore_reused_buckets;
          Alcotest.test_case "a steady period allocates 4 words" `Quick
            test_wheel_period_alloc;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_wheel_is_timers; prop_wheel_replays ] );
      ( "heap",
        Alcotest.test_case "ordering" `Quick test_heap_ordering
        :: Alcotest.test_case "releases payloads" `Quick
             test_heap_releases_payloads
        :: List.map QCheck_alcotest.to_alcotest [ prop_heap_sorts ] );
    ]
