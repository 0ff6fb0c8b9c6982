module G = Topology.Graph

let is_connected g =
  let n = G.node_count g in
  n = 0
  ||
  let seen = Array.make n false in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs (G.neighbors g i)
    end
  in
  dfs 0;
  Array.for_all Fun.id seen

let hosts_of_router g r = List.filter (G.is_host g) (G.neighbors g r)

let down_links g =
  List.filter_map
    (fun (l : G.link) -> if l.up then None else Some (l.u, l.v))
    (G.links g)

let asymmetric_link_fraction g =
  match G.links g with
  | [] -> 0.0
  | links ->
      let asym = List.filter (fun (l : G.link) -> l.cost_uv <> l.cost_vu) links in
      float_of_int (List.length asym) /. float_of_int (List.length links)

let path_cost g p =
  List.fold_left (fun acc (u, v) -> acc + G.cost g u v) 0 (Routing.Path.links p)

let path_valid g p =
  List.for_all (fun (u, v) -> G.connected g u v) (Routing.Path.links p)
  && List.length (List.sort_uniq compare p) = List.length p
