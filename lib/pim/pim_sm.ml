module Union = Mcast.Distribution.Union

(* The shared tree: the union of the receivers' reversed join paths
   toward the RP. *)
let union table ~rp ~receivers =
  Union.create (Routing.Table.graph table)
    (List.map (fun r -> (r, List.rev (Routing.Table.path table r rp))) receivers)

let m_builds = Obs.Metrics.hot_counter "pim.sm_trees_built"

let build table ~source ~rp ~receivers =
  Obs.Metrics.hot_incr m_builds;
  let dist = Mcast.Distribution.create ~source in
  (* Register leg: encapsulated unicast S -> RP, one copy per link;
     the native leg then starts at the RP with the register delay. *)
  let lead =
    Mcast.Distribution.add_path dist (Routing.Table.graph table)
      (Routing.Table.path table source rp)
  in
  Union.deliver ~lead (union table ~rp ~receivers) dist;
  dist

(* One star-G entry per on-tree router, and at the RP even when no
   tree link touches it. *)
let state table ~rp ~receivers =
  let routers = Union.routers (union table ~rp ~receivers) in
  let on_tree =
    List.length routers
    + if List.exists (fun r -> r.Union.router = rp) routers then 0 else 1
  in
  {
    Mcast.Metrics.mct_entries = 0;
    mft_entries = on_tree;
    branching_routers =
      List.length (List.filter (fun r -> r.Union.out_degree > 1) routers);
    on_tree_routers = on_tree;
  }
