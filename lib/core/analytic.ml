module Union = Mcast.Distribution.Union

let dedup receivers = List.sort_uniq Int.compare receivers

let forward_path table ~source r = Routing.Table.path table source r

let union table ~source ~receivers =
  Union.create (Routing.Table.graph table)
    (List.map (fun r -> (r, forward_path table ~source r)) (dedup receivers))

let tree_links table ~source ~receivers =
  Union.links (union table ~source ~receivers)

let m_builds = Obs.Metrics.hot_counter "hbh.analytic_trees"

let build table ~source ~receivers =
  Obs.Metrics.hot_incr m_builds;
  let dist = Mcast.Distribution.create ~source in
  Union.deliver (union table ~source ~receivers) dist;
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

let state table ~source ~receivers =
  let routers = Union.routers (union table ~source ~receivers) in
  (* Branching routers hold MFTs: divergence (out-degree > 1) or merge
     (in-degree > 1) points of the union.  Every branch out of an MFT
     router is one MFT entry; other on-tree routers hold one MCT
     entry. *)
  let mft =
    List.filter (fun r -> r.Union.out_degree > 1 || r.Union.in_degree > 1) routers
  in
  {
    Mcast.Metrics.mct_entries = List.length routers - List.length mft;
    mft_entries =
      List.fold_left (fun acc r -> acc + r.Union.out_degree) 0 mft;
    branching_routers = List.length mft;
    on_tree_routers = List.length routers;
  }
