(* The binary-heap SPF kernel that Routing.Dijkstra ran before its
   bucket queue, kept unchanged as the reference the bucket queue is
   checked against: an indexed binary heap, then a second pass over
   the adjacency for the smallest-id next hops. *)

module G = Topology.Graph

(* One flat buffer per tree, two native-endian int32 words per node:
   [next u] at byte [8u] and [dist u] at [8u + 4], [-1] in either for
   "none" (the destination's next hop, an unreachable node's both).
   The GC does not scan a [Bytes], so a cached tree costs one word per
   node to keep and nothing to mark. *)
type in_tree = { dest : int; buf : Bytes.t }

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

(* The kernel's working arrays, one set per domain ({!Stats.Parallel}
   runs SPFs on several at once), grown to the largest graph seen and
   shared by every call on that domain.  Each run works on the prefix
   [0 .. n-1] only.  It refills [dist] itself; [pos] is all -1 between
   runs because a node leaves the heap only by being popped, and
   popping resets it; [heap] needs no initial value. *)
type scratch = {
  mutable dist : int array;
  mutable heap : int array;
  mutable pos : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { dist = [||]; heap = [||]; pos = [||] })

let scratch n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.pos < n then begin
    s.dist <- Array.make n max_int;
    s.heap <- Array.make n 0;
    s.pos <- Array.make n (-1)
  end;
  s

let max_dist = Int32.to_int Int32.max_int

(* The kernel reads only the routing view's flat arrays (see
   {!Topology.Graph.view}): no link records, no lists, no closures, and
   no cross-module calls in its loops.

   The queue is an indexed binary min-heap over node ids keyed by
   [dist]: [heap.(0 .. size-1)] holds the queued nodes and [pos.(v)] is
   [v]'s slot, or -1 when [v] is not queued.  Decrease-key moves a
   queued node up in place, so there are no stale entries, and since
   costs are non-negative a popped node can never improve again, so no
   settled flags are needed either. *)

let sift_up (dist : int array) heap pos i0 =
  let v = heap.(i0) in
  let dv = dist.(v) in
  let i = ref i0 in
  while !i > 0 && dist.(heap.((!i - 1) / 2)) > dv do
    let p = (!i - 1) / 2 in
    let u = heap.(p) in
    heap.(!i) <- u;
    pos.(u) <- !i;
    i := p
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let sift_down (dist : int array) heap pos size i0 =
  let v = heap.(i0) in
  let dv = dist.(v) in
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let c =
        if l + 1 < size && dist.(heap.(l + 1)) < dist.(heap.(l)) then l + 1
        else l
      in
      let u = heap.(c) in
      if dist.(u) < dv then begin
        heap.(!i) <- u;
        pos.(u) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let of_view (view : G.view) d =
  let off = view.G.offsets
  and nbrs = view.G.nbrs
  and cost_in = view.G.cost_in
  and cost_out = view.G.cost_out
  and stub = view.G.stub in
  let n = Array.length stub in
  if d < 0 || d >= n then invalid_arg "Dijkstra.to_dest: bad destination";
  let s = scratch n in
  let dist = s.dist and heap = s.heap and pos = s.pos in
  Array.fill dist 0 n max_int;
  dist.(d) <- 0;
  heap.(0) <- d;
  pos.(d) <- 0;
  let size = ref 1 in
  while !size > 0 do
    let v = heap.(0) in
    pos.(v) <- -1;
    decr size;
    if !size > 0 then begin
      heap.(0) <- heap.(!size);
      sift_down dist heap pos !size 0
    end;
    (* Relax every in-edge u -> v: a path u -> v -> ... -> d.  A stub
       other than [d] is skipped; it is filled in below. *)
    let dv = dist.(v) in
    for k = off.(v) to off.(v + 1) - 1 do
      let c = cost_in.(k) in
      if c >= 0 then begin
        let u = nbrs.(k) in
        let cand = dv + c in
        if cand < dist.(u) && not stub.(u) then begin
          dist.(u) <- cand;
          if pos.(u) < 0 then begin
            heap.(!size) <- u;
            pos.(u) <- !size;
            incr size
          end;
          sift_up dist heap pos pos.(u)
        end
      end
    done
  done;
  (* Stubs: a degree-1 node cannot be interior to a simple path, so no
     other distance depends on it, and its own is its one neighbour's
     plus the link cost.  (A neighbour that is itself a stub other
     than [d] is a two-node component without [d]: both stay
     unreachable whichever is filled first.) *)
  for s = 0 to n - 1 do
    if stub.(s) && s <> d then begin
      let k = off.(s) in
      let c = cost_out.(k) in
      let dw = dist.(nbrs.(k)) in
      if c >= 0 && dw < max_int then dist.(s) <- dw + c
    end
  done;
  (* Next hops: the first (so smallest-id) neighbour [w] over an up
     link with [dist w + cost u w = dist u].  Computed after the fact
     so ties are broken by id, not by heap pop order.  The same pass
     stores both words of each node. *)
  let buf = Bytes.create (n lsl 3) in
  for u = 0 to n - 1 do
    let du = dist.(u) in
    let next = ref (-1) in
    if u <> d && du < max_int then begin
      let k = ref off.(u) and stop = off.(u + 1) in
      while !k < stop do
        let c = cost_out.(!k) and w = nbrs.(!k) in
        if c >= 0 && dist.(w) < max_int && dist.(w) + c = du then begin
          next := w;
          k := stop
        end
        else incr k
      done
    end;
    if du > max_dist && du < max_int then
      invalid_arg
        (Printf.sprintf
           "Dijkstra.to_dest: cost %d from %d to %d exceeds int32" du u d);
    set32 buf (u lsl 3) (Int32.of_int !next);
    set32 buf ((u lsl 3) + 4) (if du = max_int then -1l else Int32.of_int du)
  done;
  { dest = d; buf }

let next t u = Int32.to_int (get32 t.buf (u lsl 3))

let dist t u =
  let du = Int32.to_int (get32 t.buf ((u lsl 3) + 4)) in
  if du < 0 then max_int else du
