(* Binary min-heap over parallel arrays: an unboxed [float array] of
   keys, an [int array] of FIFO tie-break sequence numbers and an
   ['a array] of payloads.  The old representation boxed every entry
   three times over ([Some { key; seq; value }] — and the float inside
   the mixed record is itself boxed), so each push cost four minor
   allocations on the scheduler's hottest path.  Flat arrays make
   [push] and [pop_value] allocation-free in the steady state
   (growth doubling amortizes to nothing).

   Vacated payload slots are overwritten with [dummy] so popped values
   — and the closures they capture — are released to the GC at once.
   The scheduler's heap lives as long as the run: without the dummy
   fill, a drained heap would pin the last high-water-mark's worth of
   closures forever. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy = { keys = [||]; seqs = [||]; values = [||]; size = 0; dummy }

let size h = h.size

let is_empty h = h.size = 0

let ensure_capacity h =
  let cap = Array.length h.keys in
  if h.size = cap then begin
    let ncap = max 8 (2 * cap) in
    let keys = Array.make ncap 0.0 in
    let seqs = Array.make ncap 0 in
    let values = Array.make ncap h.dummy in
    Array.blit h.keys 0 keys 0 cap;
    Array.blit h.seqs 0 seqs 0 cap;
    Array.blit h.values 0 values 0 cap;
    h.keys <- keys;
    h.seqs <- seqs;
    h.values <- values
  end

(* Hole-based sift: walk the hole up/down comparing against the loose
   entry, moving blockers one slot, and write the entry once at the
   final position — three writes per level instead of a swap's six.
   The (key, seq) comparisons are written out inline: a comparison
   helper taking the float would be called non-inlined by ocamlopt and
   box its argument at every level, defeating the whole point. *)
let push h key seq value =
  ensure_capacity h;
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if h.keys.(p) < key || (h.keys.(p) = key && h.seqs.(p) < seq) then
      continue := false
    else begin
      h.keys.(!i) <- h.keys.(p);
      h.seqs.(!i) <- h.seqs.(p);
      h.values.(!i) <- h.values.(p);
      i := p
    end
  done;
  h.keys.(!i) <- key;
  h.seqs.(!i) <- seq;
  h.values.(!i) <- value

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty heap";
  h.keys.(0)

let pop_value h =
  if h.size = 0 then invalid_arg "Heap.pop_value: empty heap";
  let v = h.values.(0) in
  let n = h.size - 1 in
  h.size <- n;
  if n = 0 then h.values.(0) <- h.dummy
  else begin
    (* Re-seat the last entry through the root hole. *)
    let key = h.keys.(n) and seq = h.seqs.(n) and value = h.values.(n) in
    h.values.(n) <- h.dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (h.keys.(r) < h.keys.(l)
               || (h.keys.(r) = h.keys.(l) && h.seqs.(r) < h.seqs.(l)))
          then r
          else l
        in
        if h.keys.(c) < key || (h.keys.(c) = key && h.seqs.(c) < seq)
        then begin
          h.keys.(!i) <- h.keys.(c);
          h.seqs.(!i) <- h.seqs.(c);
          h.values.(!i) <- h.values.(c);
          i := c
        end
        else continue := false
      end
    done;
    h.keys.(!i) <- key;
    h.seqs.(!i) <- seq;
    h.values.(!i) <- value
  end;
  v

let iter f h =
  for i = 0 to h.size - 1 do
    f h.values.(i)
  done

(* Copies of the live array prefixes are a complete checkpoint of the
   queue (heap shape, keys and FIFO tie-break sequence numbers
   included). *)
let snapshot h =
  {
    keys = Array.sub h.keys 0 h.size;
    seqs = Array.sub h.seqs 0 h.size;
    values = Array.sub h.values 0 h.size;
    size = h.size;
    dummy = h.dummy;
  }

let restore h s =
  (* Copy again so one snapshot supports any number of restores even
     after later heap operations shuffle the arrays in place. *)
  h.keys <- Array.sub s.keys 0 s.size;
  h.seqs <- Array.sub s.seqs 0 s.size;
  h.values <- Array.sub s.values 0 s.size;
  h.size <- s.size
