module G = Topology.Graph

type t = { n : int; dist : int array }

let compute g =
  let n = G.node_count g in
  let dist = Array.make (n * n) max_int in
  for i = 0 to n - 1 do
    dist.((i * n) + i) <- 0
  done;
  List.iter
    (fun (l : G.link) ->
      if l.up then begin
        dist.((l.u * n) + l.v) <- min dist.((l.u * n) + l.v) l.cost_uv;
        dist.((l.v * n) + l.u) <- min dist.((l.v * n) + l.u) l.cost_vu
      end)
    (G.links g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = dist.((i * n) + k) in
      if dik < max_int then
        for j = 0 to n - 1 do
          let dkj = dist.((k * n) + j) in
          if dkj < max_int && dik + dkj < dist.((i * n) + j) then
            dist.((i * n) + j) <- dik + dkj
        done
    done
  done;
  { n; dist }

let distance t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Floyd_warshall.distance: node out of range";
  t.dist.((u * t.n) + v)
