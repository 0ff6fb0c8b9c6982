module G = Topology.Graph

type in_tree = { dest : int; dist : int array; next : int array }

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
  let dist = Array.make n max_int in
  let heap = Array.make n 0 and pos = Array.make n (-1) in
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
     so ties are broken by id, not by heap pop order. *)
  let next = Array.make n (-1) in
  for u = 0 to n - 1 do
    let du = dist.(u) in
    if u <> d && du < max_int then begin
      let k = ref off.(u) and stop = off.(u + 1) in
      while !k < stop do
        let c = cost_out.(!k) and w = nbrs.(!k) in
        if c >= 0 && dist.(w) < max_int && dist.(w) + c = du then begin
          next.(u) <- w;
          k := stop
        end
        else incr k
      done
    end
  done;
  { dest = d; dist; next }

let to_dest g d = of_view (G.routing_view g) d

let reachable t u = t.dist.(u) < max_int

let distance t u =
  if not (reachable t u) then
    invalid_arg (Printf.sprintf "Dijkstra.distance: %d cannot reach %d" u t.dest);
  t.dist.(u)

let next_hop t u = if t.next.(u) = -1 then None else Some t.next.(u)

let path t u =
  if not (reachable t u) then
    invalid_arg (Printf.sprintf "Dijkstra.path: %d cannot reach %d" u t.dest);
  let rec walk u acc =
    if u = t.dest then List.rev (u :: acc) else walk t.next.(u) (u :: acc)
  in
  walk u []
