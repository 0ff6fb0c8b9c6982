module Lset = Set.Make (struct
  type t = int * int

  let compare (a, b) (c, d) =
    let x = Int.compare a c in
    if x <> 0 then x else Int.compare b d
end)

let shared_tree_link_set table ~rp ~receivers =
  List.fold_left
    (fun acc r ->
      let join_path = Routing.Table.path table r rp in
      let data_path = List.rev join_path in
      List.fold_left
        (fun acc l -> Lset.add l acc)
        acc
        (Routing.Path.links data_path))
    Lset.empty receivers

let tree_links table ~rp ~receivers =
  Lset.elements (shared_tree_link_set table ~rp ~receivers)

let m_builds = Obs.Metrics.hot_counter "pim.sm_trees_built"

let build table ~source ~rp ~receivers =
  Obs.Metrics.hot_incr m_builds;
  let g = Routing.Table.graph table in
  let dist = Mcast.Distribution.create ~source in
  (* Register leg: encapsulated unicast S -> RP, one copy per link. *)
  let register_path = Routing.Table.path table source rp in
  let register_delay = Mcast.Distribution.add_path dist g register_path in
  (* Native leg: one copy per shared-tree link. *)
  let links = shared_tree_link_set table ~rp ~receivers in
  Lset.iter (fun (u, v) -> Mcast.Distribution.add_copy dist u v) links;
  List.iter
    (fun r ->
      let down = List.rev (Routing.Table.path table r rp) in
      Mcast.Distribution.deliver dist ~receiver:r
        ~delay:(register_delay +. Routing.Path.delay g down))
    receivers;
  dist

let state table ~rp ~receivers =
  let g = Routing.Table.graph table in
  let links = shared_tree_link_set table ~rp ~receivers in
  let routers =
    Lset.fold
      (fun (u, v) acc ->
        let acc = if Topology.Graph.is_router g u then u :: acc else acc in
        if Topology.Graph.is_router g v then v :: acc else acc)
      links []
    |> List.sort_uniq compare
  in
  let routers =
    (* The RP holds state even for a single-receiver tree whose links
       might not touch it (they always do, but be safe for empty). *)
    List.sort_uniq compare (rp :: routers)
  in
  let out = Hashtbl.create 16 in
  Lset.iter
    (fun (u, _) ->
      if Topology.Graph.is_router g u then
        Hashtbl.replace out u (1 + Option.value ~default:0 (Hashtbl.find_opt out u)))
    links;
  {
    Mcast.Metrics.mct_entries = 0;
    mft_entries = List.length routers;
    branching_routers =
      Hashtbl.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) out 0;
    on_tree_routers = List.length routers;
  }
