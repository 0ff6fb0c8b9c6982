module G = Topology.Graph

type in_tree = { dest : int; dist : int array; next : int array }

(* Minimal binary min-heap of (key, node) pairs.  Stale entries are
   tolerated (lazy deletion): a popped node already settled is
   skipped. *)
module Heap = struct
  type t = {
    mutable keys : int array;
    mutable nodes : int array;
    mutable size : int;
  }

  let create capacity =
    { keys = Array.make (max 1 capacity) 0; nodes = Array.make (max 1 capacity) 0; size = 0 }

  let is_empty h = h.size = 0

  let swap h i j =
    let k = h.keys.(i) in
    h.keys.(i) <- h.keys.(j);
    h.keys.(j) <- k;
    let n = h.nodes.(i) in
    h.nodes.(i) <- h.nodes.(j);
    h.nodes.(j) <- n

  let grow h =
    let cap = Array.length h.keys in
    let keys = Array.make (2 * cap) 0 and nodes = Array.make (2 * cap) 0 in
    Array.blit h.keys 0 keys 0 cap;
    Array.blit h.nodes 0 nodes 0 cap;
    h.keys <- keys;
    h.nodes <- nodes

  let push h key node =
    if h.size = Array.length h.keys then grow h;
    h.keys.(h.size) <- key;
    h.nodes.(h.size) <- node;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.keys.((!i - 1) / 2) > h.keys.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let min_key h = h.keys.(0)

  (* Removes the minimum entry and returns its node; read its key with
     [min_key] first.  Returning the pair would box a tuple per pop. *)
  let pop h =
    let node = h.nodes.(0) in
    h.size <- h.size - 1;
    h.keys.(0) <- h.keys.(h.size);
    h.nodes.(0) <- h.nodes.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.keys.(l) < h.keys.(!smallest) then smallest := l;
      if r < h.size && h.keys.(r) < h.keys.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done;
    node
end

(* Both passes below walk [G.adjacency], whose [(w, lid)] entries are
   the links joining a node to its neighbours in ascending neighbour
   order, and read the directed cost and [up] flag straight from the
   link record.  They are closure-free recursive loops: without
   flambda, a [List.iter] closure allocates per node, and the
   [G.cost]/[G.link_up] lookups (an adjacency scan plus an option
   each) per edge. *)

(* Directed cost of traversing link [l] out of its endpoint [u]. *)
let cost_from (l : G.link) u = if l.u = u then l.cost_uv else l.cost_vu

(* Relax every in-edge u -> v of the just-settled node [v] (at
   distance [dv]): a path u -> v -> ... -> d. *)
let rec relax g settled dist heap dv = function
  | [] -> ()
  | (u, lid) :: rest ->
      if not settled.(u) then begin
        let l = G.link g lid in
        if l.up then begin
          let cand = dv + cost_from l u in
          if cand < dist.(u) then begin
            dist.(u) <- cand;
            Heap.push heap cand u
          end
        end
      end;
      relax g settled dist heap dv rest

(* The first (so smallest-id) neighbour [v] of [u] over an up link with
   [dist v + cost u v = dist u]; [-1] if none. *)
let rec first_next g dist u du = function
  | [] -> -1
  | (v, lid) :: rest ->
      let dv = dist.(v) in
      if dv < max_int then begin
        let l = G.link g lid in
        if l.up && dv + cost_from l u = du then v
        else first_next g dist u du rest
      end
      else first_next g dist u du rest

let to_dest g d =
  let n = G.node_count g in
  if d < 0 || d >= n then invalid_arg "Dijkstra.to_dest: bad destination";
  let dist = Array.make n max_int in
  let settled = Array.make n false in
  let heap = Heap.create (2 * n) in
  dist.(d) <- 0;
  Heap.push heap 0 d;
  while not (Heap.is_empty heap) do
    let key = Heap.min_key heap in
    let v = Heap.pop heap in
    if not settled.(v) && key = dist.(v) then begin
      settled.(v) <- true;
      relax g settled dist heap key (G.adjacency g v)
    end
  done;
  (* Next hops: deterministic argmin with smallest-id tie-break.
     Computed after the fact so ties are broken by id, not by heap
     pop order. *)
  let next = Array.make n (-1) in
  for u = 0 to n - 1 do
    let du = dist.(u) in
    if u <> d && du < max_int then
      next.(u) <- first_next g dist u du (G.adjacency g u)
  done;
  { dest = d; dist; next }

(* Destination-rooted SPF over an explicit in-edge index:
   [in_edges.(v)] lists [(u, cost)] for every directed edge [u -> v].
   This is the engine behind {!Link_state}'s LSDB routing — the index
   is built once per LSDB generation and reused across destinations,
   and the heap replaces the O(n^2) selection scan. *)
let spf_in_edges ~n ~dest in_edges =
  if dest < 0 || dest >= n then invalid_arg "Dijkstra.spf_in_edges: bad destination";
  let dist = Array.make n max_int in
  let settled = Array.make n false in
  let heap = Heap.create (2 * n) in
  dist.(dest) <- 0;
  Heap.push heap 0 dest;
  while not (Heap.is_empty heap) do
    let key = Heap.min_key heap in
    let v = Heap.pop heap in
    if not settled.(v) && key = dist.(v) then begin
      settled.(v) <- true;
      List.iter
        (fun (u, cost) ->
          if not settled.(u) then begin
            let cand = dist.(v) + cost in
            if cand < dist.(u) then begin
              dist.(u) <- cand;
              Heap.push heap cand u
            end
          end)
        in_edges.(v)
    end
  done;
  dist

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
