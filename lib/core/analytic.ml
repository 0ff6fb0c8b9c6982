module Lset = Set.Make (struct
  type t = int * int

  let compare (a, b) (c, d) =
    let x = Int.compare a c in
    if x <> 0 then x else Int.compare b d
end)

let dedup receivers = List.sort_uniq Int.compare receivers

let forward_path table ~source r = Routing.Table.path table source r

let union_links table ~source ~receivers =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc l -> Lset.add l acc)
        acc
        (Routing.Path.links (forward_path table ~source r)))
    Lset.empty (dedup receivers)

let tree_links table ~source ~receivers =
  Lset.elements (union_links table ~source ~receivers)

let m_builds = Obs.Metrics.hot_counter "hbh.analytic_trees"

let build table ~source ~receivers =
  Obs.Metrics.hot_incr m_builds;
  let g = Routing.Table.graph table in
  let dist = Mcast.Distribution.create ~source in
  Lset.iter
    (fun (u, v) -> Mcast.Distribution.add_copy dist u v)
    (union_links table ~source ~receivers);
  List.iter
    (fun r ->
      Mcast.Distribution.deliver dist ~receiver:r
        ~delay:(Routing.Path.delay g (forward_path table ~source r)))
    (dedup receivers);
  dist

let data_path table ~source r = forward_path table ~source r

(* Group a list by a key, deterministically (ascending keys, stable
   within a group). *)
let group_by key l =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace tbl k
        (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    l;
  Hashtbl.fold (fun k xs acc -> (k, List.rev xs) :: acc) tbl []
  |> List.sort compare

let build_constrained table ~source ~receivers =
  Obs.Metrics.hot_incr m_builds;
  let g = Routing.Table.graph table in
  let dist = Mcast.Distribution.create ~source in
  let receivers = dedup receivers in
  let next u r =
    match Routing.Table.next_hop table u ~dest:r with
    | Some v -> v
    | None ->
        invalid_arg
          (Printf.sprintf "Hbh.Analytic.build_constrained: %d unreachable from %d" r u)
  in
  let can_branch w =
    w = source || Topology.Graph.is_host g w
    || Topology.Graph.multicast_capable g w
  in
  (* [serve b part]: branching node [b] owns one copy per sub-branch
     of [part]; every receiver's forward path passes [b]. *)
  let rec serve b part =
    match part with
    | [] -> ()
    | [ r ] ->
        List.iter
          (fun (u, v) -> Mcast.Distribution.add_copy dist u v)
          (Routing.Path.links (Routing.Table.path table b r))
    | _ ->
        List.iter
          (fun ((_ : int), group) ->
            match group with
            | [ r ] ->
                List.iter
                  (fun (u, v) -> Mcast.Distribution.add_copy dist u v)
                  (Routing.Path.links (Routing.Table.path table b r))
            | _ ->
                (* Walk the common prefix to the first divergence. *)
                let rec find_divergence u prefix_rev =
                  let hops = group_by (fun r -> next u r) group in
                  match hops with
                  | [ (v, _) ] -> find_divergence v (v :: prefix_rev)
                  | _ -> (u, List.rev prefix_rev)
                in
                let first = next b (List.hd group) in
                let m, prefix = find_divergence first [ first; b ] in
                if can_branch m then begin
                  (* One copy rides the shared segment; [m] duplicates. *)
                  List.iter
                    (fun (u, v) -> Mcast.Distribution.add_copy dist u v)
                    (Routing.Path.links prefix);
                  serve m group
                end
                else
                  (* [m] cannot duplicate: each sub-branch gets its own
                     copy all the way from [b]. *)
                  List.iter
                    (fun (_, sub) -> serve b sub)
                    (group_by (fun r -> next m r) group))
          (group_by (fun r -> next b r) part)
  in
  serve source receivers;
  List.iter
    (fun r ->
      Mcast.Distribution.deliver dist ~receiver:r
        ~delay:(Routing.Path.delay g (forward_path table ~source r)))
    receivers;
  dist

let branching_nodes table ~source ~receivers =
  let links = union_links table ~source ~receivers in
  let out = Hashtbl.create 16 in
  Lset.iter
    (fun (u, _) ->
      Hashtbl.replace out u (1 + Option.value ~default:0 (Hashtbl.find_opt out u)))
    links;
  Hashtbl.fold (fun u n acc -> if n > 1 then u :: acc else acc) out []
  |> List.sort compare

let state table ~source ~receivers =
  let g = Routing.Table.graph table in
  let links = union_links table ~source ~receivers in
  let out = Hashtbl.create 16 in
  let indeg = Hashtbl.create 16 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  Lset.iter
    (fun (u, v) ->
      bump out u;
      bump indeg v)
    links;
  let on_tree_routers =
    Lset.fold
      (fun (u, v) acc ->
        let acc = if Topology.Graph.is_router g u then u :: acc else acc in
        if Topology.Graph.is_router g v then v :: acc else acc)
      links []
    |> List.sort_uniq compare
  in
  (* Branching routers hold MFTs: divergence (out-degree > 1) or merge
     (in-degree > 1) points of the union.  Every branch out of an MFT
     router is one MFT entry; other on-tree routers hold one MCT
     entry. *)
  let is_mft r =
    Option.value ~default:0 (Hashtbl.find_opt out r) > 1
    || Option.value ~default:0 (Hashtbl.find_opt indeg r) > 1
  in
  let mft_routers = List.filter is_mft on_tree_routers in
  let mft_entries =
    List.fold_left
      (fun acc r -> acc + Option.value ~default:0 (Hashtbl.find_opt out r))
      0 mft_routers
  in
  {
    Mcast.Metrics.mct_entries =
      List.length on_tree_routers - List.length mft_routers;
    mft_entries;
    branching_routers = List.length mft_routers;
    on_tree_routers = List.length on_tree_routers;
  }
