(* Timing harness shared by the three workloads.

   Every timing is host-normalised: a fixed integer reference loop that
   calls no repository code runs next to each timed piece of work, and
   the work's time is divided by the adjacent reference sample and
   multiplied by the loop's pinned nominal time.  The host this runs on
   changes speed in phases lasting seconds; the reference loop slows
   with it, while no change to the program can move the reference. *)

let now = Unix.gettimeofday

(* ---- Reference loop ---------------------------------------------------- *)

(* The reference is a fixed integer loop that streams reads and writes
   through an int array.  It allocates nothing, so neither the
   program's heap nor its garbage collector can move it.  On this kind
   of shared host the program slows with memory and cache contention
   far more than with CPU speed; a loop that only does arithmetic in
   registers stays flat through those phases, while this loop slows
   with them (see README.md).  The array is sized to the workload: 8 MB
   (past L2) for the large heaps of [sweep] and [churn], 2 MB (about
   the minor heap) for [verify], whose time goes to minor allocation.

   Nominal duration of one reference sample, pinned: a normalised time
   reads "milliseconds on a host where the loop takes exactly this
   long".  The iteration count makes the loop last about this long on
   a 2-vCPU KVM x86-64 host. *)
let ref_nominal_ms = 3.0
let ref_iters = 1_300_000
let ref_buf = ref [||]
let set_reference_mb mb = ref_buf := Array.make (mb lsl 17) 0

let ref_loop () =
  let ref_buf = !ref_buf in
  let len = Array.length ref_buf in
  let j = ref 0 in
  for i = 1 to ref_iters do
    let k = !j in
    Array.unsafe_set ref_buf k
      (i + Array.unsafe_get ref_buf ((k + 4096) land (len - 1)));
    j := if k + 1 = len then 0 else k + 1
  done

let ref_sample () =
  let t0 = now () in
  ref_loop ();
  (now () -. t0) *. 1000.0

(* ---- Normalised sampler ------------------------------------------------ *)

(* A sampler keeps the latest reference sample; [close] takes the next
   one after a piece of work and normalises the work's time by the mean
   of the samples on either side of it. *)
type sampler = { mutable last_ref : float; refs : float Queue.t }

let sampler () =
  let r = ref_sample () in
  let q = Queue.create () in
  Queue.push r q;
  { last_ref = r; refs = q }

type sample = { raw_ms : float; norm_ms : float }

let close s raw_ms =
  let r = ref_sample () in
  Queue.push r s.refs;
  let adj = (s.last_ref +. r) /. 2.0 in
  s.last_ref <- r;
  { raw_ms; norm_ms = raw_ms *. ref_nominal_ms /. adj }

(* ---- Set-up in slices --------------------------------------------------- *)

(* Set-up runs as a list of slices of about 0.1 s, each normalised by
   its own adjacent reference samples, so a slow host phase hits one
   slice rather than the whole set-up figure.  Slice names accumulate
   per-layer set-up time. *)
type setup = { s : sampler; parts : (string, float) Hashtbl.t }

let setup_begin () = { s = sampler (); parts = Hashtbl.create 8 }

let slice st name f =
  let t0 = now () in
  let v = f () in
  let smp = close st.s ((now () -. t0) *. 1000.0) in
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt st.parts name) in
  Hashtbl.replace st.parts name (prev +. smp.norm_ms);
  v

let part_ms st name = Option.value ~default:0.0 (Hashtbl.find_opt st.parts name)
let total_s st = Hashtbl.fold (fun _ v acc -> acc +. v) st.parts 0.0 /. 1000.0

(* ---- Statistics ---------------------------------------------------------- *)

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile a q =
  let b = Array.copy a in
  Array.sort compare b;
  let n = Array.length b in
  if n = 0 then 0.0
  else if n = 1 then b.(0)
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then b.(n - 1)
    else b.(i) +. ((pos -. float_of_int i) *. (b.(i + 1) -. b.(i)))

let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0.0 a
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- Host ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

let counter name = Obs.Metrics.hot_value (Obs.Metrics.hot_counter name)

(* Messages sent by each protocol, from the [proto.<name>.*] counters
   every session keeps. *)
let session_names = [ "hbh"; "reunite"; "pim_ssm"; "hpim-dm" ]

let msg_classes =
  [ "join_msgs"; "tree_msgs"; "data_msgs"; "fusion_msgs"; "hello_msgs" ]

let proto_msgs () =
  List.map
    (fun s ->
      List.fold_left
        (fun acc c -> acc + counter (Printf.sprintf "proto.%s.%s" s c))
        0 msg_classes)
    session_names

let msgs_per_op ~per_op m0 m1 =
  List.map2
    (fun s (a, b) -> ("proto." ^ s ^ ".msgs_per_op", per_op (b - a)))
    session_names (List.combine m0 m1)

(* ---- Per-layer spans -------------------------------------------------------- *)

(* Spans are recorded by the benchmark around its calls into each
   layer, only on traced ops.  Each op's raw span times are normalised
   with that op's reference factor once the op has ended. *)
type spans = {
  names : string array;
  cur : float array;  (** raw ms of the op in flight *)
  total : float array;  (** normalised ms summed over traced ops *)
  mutable traced_ops : int;
  mutable on : bool;
}

let spans names =
  let n = Array.length names in
  {
    names;
    cur = Array.make n 0.0;
    total = Array.make n 0.0;
    traced_ops = 0;
    on = false;
  }

let span sp i f =
  if not sp.on then f ()
  else begin
    let t0 = now () in
    let v = f () in
    sp.cur.(i) <- sp.cur.(i) +. ((now () -. t0) *. 1000.0);
    v
  end

let span_commit sp factor =
  if sp.on then begin
    Array.iteri
      (fun i v ->
        sp.total.(i) <- sp.total.(i) +. (v *. factor);
        sp.cur.(i) <- 0.0)
      sp.cur;
    sp.traced_ops <- sp.traced_ops + 1
  end

let span_mean_ms sp name =
  let rec find i =
    if i >= Array.length sp.names then invalid_arg ("span " ^ name)
    else if sp.names.(i) = name then i
    else find (i + 1)
  in
  ratio sp.total.(find 0) (float_of_int sp.traced_ops)

(* ---- Op loop ---------------------------------------------------------------- *)

type loop = {
  op_ms : float array;  (** normalised times of untraced ops *)
  op_idx : int array;  (** the op index of each [op_ms] entry *)
  traced_ms : float array;  (** normalised times of traced ops *)
  raw_ms : float array;  (** raw times of all ops *)
  refs : float array;  (** every reference sample taken, ms *)
  ops : int;
  failed : int;
  window : int;  (** ops in the count window *)
  minor_words : float;  (** minor words per untraced op in the count window *)
  ended : ending;
}

(* A run ends early when an op raises.  [Stop] is raised by a workload's
   own guard: the op failed in a way its check detected, but the run
   cannot go on from the state it left.  Any other exception is a
   crash. *)
and ending = Completed | Stopped of string | Crashed of string

exception Stop of string

(* Runs [op split i] for i = 0, 1, ... until [seconds] have passed (and
   at least [min_ops] ops have run), [max_ops] is reached, or [op]
   reports the input exhausted (returns [None]).  The timed part of the
   op returns [Some check]; [check] runs outside the timed region and
   returns the op's verdict.  With [trace], odd ops
   run with spans on, so traced and untraced ops interleave through the
   same host phases.

   An op may time its parts separately with [split.run]: each part is
   normalised by its own adjacent reference samples, so a host phase
   shorter than a long op is still cancelled.  The op's time is the sum
   of its parts.

   Counts are taken over a count window: the first [window] ops (fewer
   if the run ends sooner).  Every op in it is the same work on every
   run of one seed, so its counts repeat exactly.  [at_window n] runs
   once, after the window's last op. *)
type split = { run : 'a. (unit -> 'a) -> 'a }

let run_ops ?(min_ops = 0) ?(max_ops = max_int) ~seconds ~trace ~sp ~window ~at_window op =
  let s = sampler () in
  let untraced = ref [] and idx = ref [] and traced = ref [] and raw = ref [] in
  let failed = ref 0 and ended = ref Completed in
  let words = ref 0.0 and word_ops = ref 0 in
  let window_done = ref false in
  let close_window n =
    if not !window_done then begin
      window_done := true;
      at_window n
    end
  in
  let part_raw = ref 0.0 and part_norm = ref 0.0 and mark = ref 0.0 in
  let split =
    {
      run =
        (fun f ->
          let v = f () in
          let smp = close s ((now () -. !mark) *. 1000.0) in
          part_raw := !part_raw +. smp.raw_ms;
          part_norm := !part_norm +. smp.norm_ms;
          mark := now ();
          v);
    }
  in
  let t_end = now () +. seconds in
  let rec go i =
    if i = window then close_window i;
    if i >= max_ops || (i >= min_ops && now () >= t_end) then i
    else begin
      sp.on <- trace && i land 1 = 1;
      part_raw := 0.0;
      part_norm := 0.0;
      let w0 = Gc.minor_words () in
      mark := now ();
      match op split i with
      | exception e -> crash e i
      | None -> i
      | Some check ->
          let rest_ms = (now () -. !mark) *. 1000.0 in
          let w1 = Gc.minor_words () in
          let rest = close s rest_ms in
          let raw_ms = !part_raw +. rest.raw_ms in
          let norm_ms = !part_norm +. rest.norm_ms in
          span_commit sp (ratio norm_ms raw_ms);
          if i < window && not sp.on then begin
            words := !words +. (w1 -. w0);
            incr word_ops
          end;
          raw := raw_ms :: !raw;
          if sp.on then traced := norm_ms :: !traced
          else begin
            untraced := norm_ms :: !untraced;
            idx := i :: !idx
          end;
          sp.on <- false;
          match check () with
          | exception e -> crash e i
          | ok ->
              if not ok then incr failed;
              go (i + 1)
    end
  and crash e i =
    (ended :=
       match e with Stop msg -> Stopped msg | e -> Crashed (Printexc.to_string e));
    incr failed;
    i + 1
  in
  let ops = go 0 in
  close_window ops;
  sp.on <- false;
  let arr l = Array.of_list (List.rev l) in
  {
    op_ms = arr !untraced;
    op_idx = arr !idx;
    traced_ms = arr !traced;
    raw_ms = arr !raw;
    refs = Array.of_seq (Queue.to_seq s.refs);
    ops;
    failed = !failed;
    window = min window ops;
    minor_words = ratio !words (float_of_int !word_ops);
    ended = !ended;
  }

(* Ops [i] and [i + cycle] are the same work.  Folds the untraced op
   times into one mean per op of the cycle, so that every run reports
   over the same set of ops however many fit in it. *)
let fold_cycle loop cycle =
  let sum = Array.make cycle 0.0 and n = Array.make cycle 0 in
  Array.iteri
    (fun k i ->
      let c = i mod cycle in
      sum.(c) <- sum.(c) +. loop.op_ms.(k);
      n.(c) <- n.(c) + 1)
    loop.op_idx;
  let means = ref [] in
  for c = cycle - 1 downto 0 do
    if n.(c) > 0 then means := (c, sum.(c) /. float_of_int n.(c)) :: !means
  done;
  {
    loop with
    op_ms = Array.of_list (List.map snd !means);
    op_idx = Array.of_list (List.map fst !means);
  }

(* ---- Results ----------------------------------------------------------------- *)

type result = {
  loop : loop;
  failed : int;  (** ops whose per-op check failed *)
  setup_s : float;  (** median normalised set-up time over repeats *)
  layers : (string * float) list;  (** per-layer metrics this workload measures *)
  ladder : (string -> float) -> (string * float * string) list;
      (** traced run: the layer ladder given the unit costs, as (term,
          ms per op, how it was measured); the terms sum to the layer
          sum *)
}
