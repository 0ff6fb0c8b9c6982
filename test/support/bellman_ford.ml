module G = Topology.Graph

type result = { dest : int; dist : int array; iterations : int }

let to_dest g d =
  let n = G.node_count g in
  if d < 0 || d >= n then invalid_arg "Bellman_ford.to_dest: bad destination";
  let dist = Array.make n max_int in
  dist.(d) <- 0;
  let changed = ref true in
  let rounds = ref 0 in
  (* Each round, every node re-evaluates its best offer from its
     neighbors over up links — a synchronous distance-vector exchange.
     Costs are positive so at most n-1 rounds are needed.  Edges are
     read through [G.neighbors]/[G.link_up]/[G.cost], not the adjacency
     walk {!Routing.Dijkstra} uses, so the cross-check stays independent. *)
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    for u = 0 to n - 1 do
      if u <> d then
        List.iter
          (fun v ->
            if dist.(v) < max_int && G.link_up g u v then begin
              let cand = dist.(v) + G.cost g u v in
              if cand < dist.(u) then begin
                dist.(u) <- cand;
                changed := true
              end
            end)
          (G.neighbors g u)
    done
  done;
  { dest = d; dist; iterations = !rounds }
