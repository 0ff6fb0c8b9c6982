type 'a t = {
  buf : 'a option array;
  mutable head : int; (* index of the oldest entry *)
  mutable len : int;
  mutable dropped : int; (* entries evicted since creation *)
  mutable high_water : int; (* max len ever reached *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { buf = Array.make capacity None; head = 0; len = 0; dropped = 0; high_water = 0 }

let length t = t.len
let dropped t = t.dropped
let high_water t = t.high_water

let push t x =
  let cap = Array.length t.buf in
  if t.len < cap then begin
    t.buf.((t.head + t.len) mod cap) <- Some x;
    t.len <- t.len + 1;
    if t.len > t.high_water then t.high_water <- t.len
  end
  else begin
    (* Full: overwrite the oldest slot and advance the head. *)
    t.buf.(t.head) <- Some x;
    t.head <- (t.head + 1) mod cap;
    t.dropped <- t.dropped + 1
  end

let last t n =
  let n = min n t.len in
  let cap = Array.length t.buf in
  let out = ref [] in
  for i = t.len - 1 downto t.len - n do
    match t.buf.((t.head + i) mod cap) with
    | Some x -> out := x :: !out
    | None -> ()
  done;
  !out
