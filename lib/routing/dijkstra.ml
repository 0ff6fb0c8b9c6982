module G = Topology.Graph

(* One flat buffer per tree, two native-endian int32 words per node:
   [next u] at byte [8u] and [dist u] at [8u + 4], [-1] in either for
   "none" (the destination's next hop, an unreachable node's both).
   The GC does not scan a [Bytes], so a cached tree costs one word per
   node to keep and nothing to mark. *)
type in_tree = { dest : int; buf : Bytes.t }

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

(* Unchecked, for loops whose offsets stay inside the buffer. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* The queue is a ring of [ring] buckets, each a LIFO list of entries.
   Bucket [b] holds the keys [k] with [k lsr shift = b], at ring slot
   [b land (ring - 1)].  While the bucket of [cur] is drained every
   queued key lies in [cur, cur + max_cost], so the queued keys span at
   most [(max_cost lsr shift) + 2] buckets, and [shift] is the smallest
   that keeps them within the ring: 0 (width 1, Dial's algorithm) for
   every largest cost below [ring - 1], the paper's 1..10 included. *)
let ring = 64

let width_shift max_cost =
  let s = ref 0 in
  while (max_cost lsr !s) + 2 > ring do
    incr s
  done;
  !s

(* The kernel's working arrays, one set per domain ({!Stats.Parallel}
   runs SPFs on several at once), grown to the largest graph seen and
   shared by every call on that domain.  Each run refills the prefix
   [0 .. n-1] of [dist] itself and reads [next u] only once it has set
   it.  Entry [e] of the queue is three words of [entries] from [e]:
   the node, its key, and the entry below it in its bucket or -1.
   Every run drains the queue, so [head] is all -1 between runs and the
   entries need no initial value.  A run pushes one entry per strict
   improvement: with width 1 that is at most one per slot plus the
   root, and wider buckets, which can expand a node twice, grow
   [entries] when it runs out. *)
type scratch = {
  mutable dist : int array;
  mutable next : int array;
  mutable entries : int array;
  head : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { dist = [||]; next = [||]; entries = [||]; head = Array.make ring (-1) })

let scratch n slots =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.dist < n then begin
    s.dist <- Array.make n max_int;
    s.next <- Array.make n (-1)
  end;
  if Array.length s.entries < 3 * (slots + 1) then
    s.entries <- Array.make (3 * (slots + 1)) 0;
  s

let grow s =
  s.entries <- Array.append s.entries (Array.make (Array.length s.entries) 0);
  s.entries

let max_dist = Int32.to_int Int32.max_int

(* The kernel reads only the routing view's flat arrays (see
   {!Topology.Graph.view}): no link records, no lists, no closures, and
   no cross-module calls in its loops.

   A popped entry whose key is no longer its node's distance is stale
   and skipped; a node whose distance drops is queued again.  With
   width 1 a bucket holds one key, so nodes are expanded in Dijkstra
   order, each once.  With wider buckets a node can be expanded before
   a smaller key of its bucket, and is expanded again when that lowers
   its distance, so the distances stay exact.

   Next hops are picked while relaxing: a strict improvement of [u]
   through [v] sets [next u = v], and an equal distance keeps the
   smaller of [v] and [next u].  A node not yet at its final distance
   offers [u] more than [u]'s final distance, so the ties compared at
   [u]'s final distance are exactly the neighbours [w] over an up link
   with [dist w + cost u w = dist u]: [next u] is the smallest-id one,
   whatever the pop order.

   A stub other than [d] starts at [min_int], which no candidate
   distance beats or equals, so the relaxation skips it without a test
   of its own; the stub pass below fills it in. *)
let of_view (view : G.view) d =
  let off = view.G.offsets
  and nbrs = view.G.nbrs
  and cost_in = view.G.cost_in
  and cost_out = view.G.cost_out
  and stub = view.G.stub in
  let n = Array.length stub in
  if d < 0 || d >= n then invalid_arg "Dijkstra.to_dest: bad destination";
  let s = scratch n (Array.length nbrs) in
  let dist = s.dist and next = s.next and head = s.head in
  for u = 0 to n - 1 do
    dist.(u) <- (if stub.(u) then min_int else max_int)
  done;
  dist.(d) <- 0;
  next.(d) <- -1;
  let shift = width_shift view.G.max_cost and mask = ring - 1 in
  let entries = ref s.entries in
  !entries.(0) <- d;
  !entries.(1) <- 0;
  !entries.(2) <- -1;
  head.(0) <- 0;
  let top = ref 3 and queued = ref 1 and cur = ref 0 in
  while !queued > 0 do
    let b = !cur land mask in
    let e = head.(b) in
    if e < 0 then incr cur
    else begin
      let q = !entries in
      head.(b) <- q.(e + 2);
      decr queued;
      let v = q.(e) in
      let dv = dist.(v) in
      if q.(e + 1) = dv then begin
        let k0 = off.(v) and k1 = off.(v + 1) in
        if !top + (3 * (k1 - k0)) > Array.length q then entries := grow s;
        let q = !entries in
        (* Relax every in-edge u -> v: a path u -> v -> ... -> d. *)
        for k = k0 to k1 - 1 do
          let c = cost_in.(k) in
          if c >= 0 then begin
            let u = nbrs.(k) in
            let cand = dv + c in
            let du = dist.(u) in
            if cand < du then begin
              dist.(u) <- cand;
              next.(u) <- v;
              let e = !top and b = (cand lsr shift) land mask in
              q.(e) <- u;
              q.(e + 1) <- cand;
              q.(e + 2) <- head.(b);
              head.(b) <- e;
              top := e + 3;
              incr queued
            end
            else if cand = du && v < next.(u) then next.(u) <- v
          end
        done
      end
    end
  done;
  (* Stubs: a degree-1 node cannot be interior to a simple path, so no
     other distance depends on it, and its own is its one neighbour's
     plus the link cost, its next hop that neighbour.  (A neighbour
     that is itself a stub other than [d] is a two-node component
     without [d]: both stay unreachable.)  Costs are at least 1
     ({!Topology.Graph.set_cost}), so the stub never ties as its
     neighbour's next hop. *)
  for s = 0 to n - 1 do
    if stub.(s) && s <> d then begin
      let k = off.(s) in
      let c = cost_out.(k) and w = nbrs.(k) in
      let dw = dist.(w) in
      if c >= 0 && dw >= 0 && dw < max_int then begin
        dist.(s) <- dw + c;
        next.(s) <- w
      end
      else dist.(s) <- max_int
    end
  done;
  (* One pass stores both words of each node. *)
  let buf = Bytes.create (n lsl 3) in
  for u = 0 to n - 1 do
    let du = dist.(u) in
    if du > max_dist && du < max_int then
      invalid_arg
        (Printf.sprintf
           "Dijkstra.to_dest: cost %d from %d to %d exceeds int32" du u d);
    set32 buf (u lsl 3) (if du = max_int then -1l else Int32.of_int next.(u));
    set32 buf ((u lsl 3) + 4) (if du = max_int then -1l else Int32.of_int du)
  done;
  { dest = d; buf }

let to_dest g d = of_view (G.routing_view g) d

(* A stub [s] has one neighbour [w], and every path into [s] ends with
   the access hop [w -> s]; [s] is never interior to a simple path, so
   the paths into [w] that [w]'s tree holds never cross [s].  Hence
   [dist u s = dist u w + cost w s] for every [u] but [s], and, since
   costs are at least 1, the tied neighbours of each [u] other than [w]
   and [s] are the same toward [s] as toward [w]: [u]'s next hop
   carries over.  [w] steps to [s], and [s] is the root.  Nodes are
   checked in ascending order, so an overflow names the node the kernel
   would have named. *)
let of_stub (view : G.view) s tw =
  let stub = view.G.stub in
  let n = Array.length stub in
  if s < 0 || s >= n || not stub.(s) then invalid_arg "Dijkstra.of_stub: not a stub";
  let k = view.G.offsets.(s) in
  let w = view.G.nbrs.(k) in
  if tw.dest <> w || Bytes.length tw.buf <> n lsl 3 then
    invalid_arg "Dijkstra.of_stub: not the tree of the stub's neighbour";
  let c = view.G.cost_in.(k) in
  let len = n lsl 3 in
  let buf = Bytes.create len in
  if c < 0 then Bytes.fill buf 0 len '\xff'
  else begin
    Bytes.blit tw.buf 0 buf 0 len;
    (* [!o] walks the distance words: 4, 12, .., len - 4. *)
    let o = ref 4 in
    while !o < len do
      let du = Int32.to_int (get32u buf !o) in
      if du >= 0 then begin
        let du = du + c in
        if du > max_dist && !o lsr 3 <> s then
          invalid_arg
            (Printf.sprintf
               "Dijkstra.to_dest: cost %d from %d to %d exceeds int32" du
               (!o lsr 3) s);
        set32u buf !o (Int32.of_int du)
      end;
      o := !o + 8
    done;
    set32 buf (w lsl 3) (Int32.of_int s)
  end;
  set32 buf (s lsl 3) (-1l);
  set32 buf ((s lsl 3) + 4) 0l;
  { dest = s; buf }

let next t u = Int32.to_int (get32 t.buf (u lsl 3))

let dist t u =
  let du = Int32.to_int (get32 t.buf ((u lsl 3) + 4)) in
  if du < 0 then max_int else du

let reachable t u = Int32.to_int (get32 t.buf ((u lsl 3) + 4)) >= 0

let distance t u =
  if not (reachable t u) then
    invalid_arg (Printf.sprintf "Dijkstra.distance: %d cannot reach %d" u t.dest);
  dist t u

let next_hop t u =
  let v = next t u in
  if v < 0 then None else Some v

let next_hops_changed a b =
  let len = Bytes.length a.buf in
  if Bytes.length b.buf <> len then
    invalid_arg "Dijkstra.next_hops_changed: trees of different graphs";
  if Bytes.equal a.buf b.buf then 0
  else begin
    let moved = ref 0 in
    let k = ref 0 in
    while !k < len do
      if get32 a.buf !k <> get32 b.buf !k then incr moved;
      k := !k + 8
    done;
    !moved
  end

let path t u =
  if not (reachable t u) then
    invalid_arg (Printf.sprintf "Dijkstra.path: %d cannot reach %d" u t.dest);
  let rec walk u acc =
    if u = t.dest then List.rev (u :: acc) else walk (next t u) (u :: acc)
  in
  walk u []
