module Union = Mcast.Distribution.Union

(* The union over receivers of the reversed join paths.  Because
   next hops toward [source] are unique, the union is a tree. *)
let union table ~source ~receivers =
  Union.create (Routing.Table.graph table)
    (List.map (fun r -> (r, List.rev (Routing.Table.path table r source))) receivers)

let m_builds = Obs.Metrics.hot_counter "pim.ss_trees_built"

let build table ~source ~receivers =
  Obs.Metrics.hot_incr m_builds;
  let dist = Mcast.Distribution.create ~source in
  Union.deliver (union table ~source ~receivers) dist;
  dist

(* Every on-tree router holds one (S,G) forwarding entry; it branches
   when more than one downstream tree link leaves it. *)
let state table ~source ~receivers =
  let routers = Union.routers (union table ~source ~receivers) in
  {
    Mcast.Metrics.mct_entries = 0;
    mft_entries = List.length routers;
    branching_routers =
      List.length (List.filter (fun r -> r.Union.out_degree > 1) routers);
    on_tree_routers = List.length routers;
  }
