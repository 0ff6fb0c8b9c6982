(* A deadline-coalescing timer wheel: entries that expire at the same
   instant share one engine event.  Merging is deliberately restricted
   to buckets *born in the current engine instant*: two arms from the
   same instant are provably adjacent in the engine's tie-break order
   (anything scheduled between them is a message send whose delay is
   shorter than any timer period, so it lands before the shared
   deadline), which makes a coalesced bucket fire its members in
   exactly the order separate timer chains would.  An arm that
   finds only a bucket created at an earlier instant schedules its own
   event — foreign events could have claimed sequence numbers in
   between, and joining the old bucket would reorder against them.

   The periodic path allocates nothing that outlives a period.  A
   bucket that fires is re-armed in place by the first of its members
   that needs a new bucket: its record, member arrays, closure and
   engine handle are reused, and [Engine.requeue] gives the handle the
   sequence number a fresh event would have taken.  Deadlines live in
   all-float records (stored flat, so a write boxes nothing), members
   in arrays, and the merge lookup scans the few buckets born at the
   current instant instead of a float-keyed table. *)

(* All-float records: OCaml stores them flat, so the writes below are
   plain stores. *)
type times = { mutable deadline : float; mutable birth : float }
type instant = { mutable at : float }

type entry = {
  wheel : t;
  period : float;
  action : unit -> unit;
  (* The deadline being armed, handed to the lookup in a float record
     so the per-period path boxes no float argument. *)
  due : instant;
  mutable active : bool;
  mutable queued : bool; (* a member of [bucket] *)
  mutable bucket : bucket; (* the bucket it was last armed in *)
}

and bucket = {
  tm : times; (* [birth]: engine clock when the bucket was armed *)
  mutable handle : Engine.handle option; (* Some once scheduled *)
  mutable members : entry array; (* insertion order, [len] live *)
  mutable len : int;
  (* The members of the fire in progress: the two arrays swap at each
     fire, so a re-armed bucket fills one while the other is walked. *)
  mutable firing : entry array;
  mutable armed : bool; (* its event is queued and not cancelled *)
  mutable slot : int; (* index in [pending] while armed *)
}

and t = {
  engine : Engine.t;
  tag : string option;
  (* Armed buckets, unordered (swap-remove); only [save] walks them. *)
  mutable pending : bucket array;
  mutable n_pending : int;
  (* Buckets armed at [born_at], the only ones a merge may join. *)
  mutable born : bucket array;
  mutable n_born : int;
  born_at : instant;
}

let create ?tag engine =
  {
    engine;
    tag;
    pending = [||];
    n_pending = 0;
    born = [||];
    n_born = 0;
    born_at = { at = neg_infinity };
  }

(* Append [x] to the first [n] slots of [a], growing it (filled with
   [x]) when full; returns the array now holding it. *)
let push a n x =
  let a =
    if n < Array.length a then a
    else begin
      let a' = Array.make (max 4 (2 * n)) x in
      Array.blit a 0 a' 0 n;
      a'
    end
  in
  a.(n) <- x;
  a

let track w b =
  b.armed <- true;
  b.slot <- w.n_pending;
  w.pending <- push w.pending w.n_pending b;
  w.n_pending <- w.n_pending + 1

let note_born w b ~now =
  if w.born_at.at <> now then begin
    w.n_born <- 0;
    w.born_at.at <- now
  end;
  w.born <- push w.born w.n_born b;
  w.n_born <- w.n_born + 1

(* Every arm happens at the engine's current instant. *)
let arm w b ~now =
  track w b;
  note_born w b ~now

let disarm w b =
  if b.armed then begin
    b.armed <- false;
    let last = w.n_pending - 1 in
    let moved = w.pending.(last) in
    w.pending.(b.slot) <- moved;
    moved.slot <- b.slot;
    w.n_pending <- last
  end

(* The armed bucket born at [now] that expires at [due], as an index
   into [born], or -1.  At most one exists: every arm looks here
   before it starts a bucket. *)
let find_born w due ~now =
  let found = ref (-1) in
  if w.born_at.at = now then begin
    let i = ref 0 in
    while !found < 0 && !i < w.n_born do
      let b = w.born.(!i) in
      if b.armed && b.tm.birth = now && b.tm.deadline = due.at then found := !i;
      incr i
    done
  end;
  !found

let add b e =
  b.members <- push b.members b.len e;
  b.len <- b.len + 1;
  e.bucket <- b;
  e.queued <- true

(* The fired bucket [b] armed again, in place, for [due]. *)
let rearm w b due ~now =
  b.tm.deadline <- due.at;
  b.tm.birth <- now;
  (match b.handle with
  | Some h -> Engine.requeue w.engine h ~time:b.tm.deadline
  | None -> ());
  arm w b ~now

(* Fire disarms the bucket and takes its members out before running
   any action: an entry stopped by a sibling in the same bucket is
   skipped via its [active] flag, and a same-instant re-arm at this very
   deadline starts a new bucket (firing after everything already
   pending, like the fresh engine event it replaces).  Each entry
   re-arms immediately after its own action, so re-armed buckets claim
   sequence numbers exactly where per-timer re-arms would. *)
let rec fire w b =
  let d = b.tm.deadline in
  disarm w b;
  let n = b.len and members = b.members in
  b.members <- b.firing;
  b.firing <- members;
  b.len <- 0;
  for i = 0 to n - 1 do
    members.(i).queued <- false
  done;
  let spare = ref true in
  for i = 0 to n - 1 do
    let e = members.(i) in
    if e.active then begin
      e.action ();
      if e.active then begin
        e.due.at <- d +. e.period;
        let now = Engine.now w.engine in
        let j = find_born w e.due ~now in
        if j >= 0 then add w.born.(j) e
        else if !spare then begin
          spare := false;
          rearm w b e.due ~now;
          add b e
        end
        else add (fresh_bucket w e.due ~now) e
      end
    end
  done

and fresh_bucket w due ~now =
  let b =
    {
      tm = { deadline = due.at; birth = now };
      handle = None;
      members = [||];
      len = 0;
      firing = [||];
      armed = false;
      slot = -1;
    }
  in
  b.handle <-
    Some
      (Engine.schedule_at ?tag:w.tag w.engine ~time:b.tm.deadline (fun () ->
           fire w b));
  arm w b ~now;
  b

let every w ?start ~period f =
  if period <= 0.0 then invalid_arg "Wheel.every: period must be positive";
  let start = match start with Some s -> s | None -> period in
  let now = Engine.now w.engine in
  let due = { at = now +. start } in
  let j = find_born w due ~now in
  let b = if j >= 0 then w.born.(j) else fresh_bucket w due ~now in
  let e =
    {
      wheel = w;
      period;
      action = f;
      due;
      active = true;
      queued = false;
      bucket = b;
    }
  in
  add b e;
  e

let stop e =
  if e.active then begin
    e.active <- false;
    (* Not queued: mid-fire, taken out already; the flag suffices. *)
    if e.queued then begin
      e.queued <- false;
      let b = e.bucket in
      let i = ref 0 in
      while !i < b.len && b.members.(!i) != e do
        incr i
      done;
      if !i < b.len then begin
        Array.blit b.members (!i + 1) b.members !i (b.len - !i - 1);
        b.len <- b.len - 1;
        if b.len = 0 then begin
          (match b.handle with Some h -> Engine.cancel h | None -> ());
          disarm e.wheel b
        end
      end
    end
  end

let active e = e.active

(* Snapshot captures every armed bucket with its deadline, birth and
   member list: a bucket re-armed in place after the snapshot has new
   values in all three.  [restore] runs after the owning
   [Engine.restore] has put the buckets' queued events back (their fire
   closures reference the bucket records directly); re-marking saved
   members active and resetting each bucket undoes any post-snapshot
   [stop] or re-arm.  Entries stopped before the snapshot appear in no
   saved bucket and stay inactive.  Not meaningful mid-callback. *)
type saved = {
  s_bucket : bucket;
  s_deadline : float;
  s_birth : float;
  s_members : entry array;
}

type snap = saved list

let save w =
  List.init w.n_pending (fun i ->
      let b = w.pending.(i) in
      {
        s_bucket = b;
        s_deadline = b.tm.deadline;
        s_birth = b.tm.birth;
        s_members = Array.sub b.members 0 b.len;
      })

let restore w s =
  for i = 0 to w.n_pending - 1 do
    w.pending.(i).armed <- false
  done;
  w.n_pending <- 0;
  w.n_born <- 0;
  let now = Engine.now w.engine in
  w.born_at.at <- now;
  List.iter
    (fun sv ->
      let b = sv.s_bucket in
      b.tm.deadline <- sv.s_deadline;
      b.tm.birth <- sv.s_birth;
      (* A copy, so one snapshot supports any number of restores. *)
      b.members <- Array.copy sv.s_members;
      b.len <- Array.length sv.s_members;
      Array.iter
        (fun e ->
          e.active <- true;
          e.queued <- true;
          e.bucket <- b)
        b.members;
      track w b;
      (* Only buckets born at the restored instant may take merges. *)
      if sv.s_birth = now then note_born w b ~now)
    s
