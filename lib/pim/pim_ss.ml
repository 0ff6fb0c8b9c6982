module Lset = Set.Make (struct
  type t = int * int

  let compare (a, b) (c, d) =
    let x = Int.compare a c in
    if x <> 0 then x else Int.compare b d
end)

(* The union over receivers of the reversed join paths.  Because
   next hops toward [source] are unique, the union is a tree. *)
let tree_link_set table ~source ~receivers =
  List.fold_left
    (fun acc r ->
      let join_path = Routing.Table.path table r source in
      let data_path = List.rev join_path in
      List.fold_left
        (fun acc l -> Lset.add l acc)
        acc
        (Routing.Path.links data_path))
    Lset.empty receivers

let tree_links table ~source ~receivers =
  Lset.elements (tree_link_set table ~source ~receivers)

let m_builds = Obs.Metrics.hot_counter "pim.ss_trees_built"

let build table ~source ~receivers =
  Obs.Metrics.hot_incr m_builds;
  let g = Routing.Table.graph table in
  let dist = Mcast.Distribution.create ~source in
  let links = tree_link_set table ~source ~receivers in
  Lset.iter (fun (u, v) -> Mcast.Distribution.add_copy dist u v) links;
  List.iter
    (fun r ->
      let data_path = List.rev (Routing.Table.path table r source) in
      Mcast.Distribution.deliver dist ~receiver:r
        ~delay:(Routing.Path.delay g data_path))
    receivers;
  dist

let state table ~source ~receivers =
  let g = Routing.Table.graph table in
  let links = tree_link_set table ~source ~receivers in
  (* On-tree routers: every router that appears as an endpoint of a
     tree link.  Each holds one (S,G) forwarding entry. *)
  let routers =
    Lset.fold
      (fun (u, v) acc ->
        let acc = if Topology.Graph.is_router g u then acc |> List.cons u else acc in
        if Topology.Graph.is_router g v then v :: acc else acc)
      links []
    |> List.sort_uniq compare
  in
  {
    Mcast.Metrics.mct_entries = 0;
    mft_entries = List.length routers;
    branching_routers =
      (* Routers with more than one downstream tree link. *)
      (let out = Hashtbl.create 16 in
       Lset.iter
         (fun (u, _) ->
           if Topology.Graph.is_router g u then
             Hashtbl.replace out u
               (1 + Option.value ~default:0 (Hashtbl.find_opt out u)))
         links;
       Hashtbl.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) out 0);
    on_tree_routers = List.length routers;
  }
