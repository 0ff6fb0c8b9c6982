type point = { routers_changed : float; routes_changed : float }

type result = {
  sizes : int list;
  reunite : (int * point) list;
  hbh : (int * point) list;
}

(* Per-router fingerprint of REUNITE state. *)
let reunite_snapshot g t =
  List.map
    (fun r -> (Reunite.Analytic.mct_of t r, Reunite.Analytic.mft_of t r))
    (Topology.Graph.routers g)

(* Per-router fingerprint of converged HBH state: the router's
   outgoing links in the forward-path union (its duplication
   behaviour). *)
let hbh_snapshot g table ~source ~receivers =
  let links = Hbh.Analytic.tree_links table ~source ~receivers in
  List.map
    (fun r -> List.filter (fun (u, _) -> u = r) links)
    (Topology.Graph.routers g)

let count_diff a b =
  List.fold_left2 (fun acc x y -> if x = y then acc else acc + 1) 0 a b

let run ?(runs = 200) ?(seed = 42) (config : Common.config) =
  let sizes = List.filter (fun n -> n >= 2) config.sizes in
  let master = Stats.Rng.create seed in
  let measure n =
    let size_rng = Stats.Rng.split master in
    let re_routers = Stats.Summary.create () in
    let re_routes = Stats.Summary.create () in
    let hbh_routers = Stats.Summary.create () in
    let hbh_routes = Stats.Summary.create () in
    for _ = 1 to runs do
      let rng = Stats.Rng.split size_rng in
      let s =
        Workload.Scenario.make rng config.graph ~source:config.source
          ~candidates:config.candidates ~n
      in
      let leaver = Stats.Rng.pick rng s.receivers in
      let remaining = List.filter (fun r -> r <> leaver) s.receivers in
      (* REUNITE *)
      let t = Reunite.Analytic.create s.table ~source:s.source in
      List.iter (Reunite.Analytic.join t) s.receivers;
      let before = reunite_snapshot config.graph t in
      let paths_before =
        List.map (fun r -> Reunite.Analytic.data_path t r) remaining
      in
      Reunite.Analytic.leave t leaver;
      let after = reunite_snapshot config.graph t in
      let paths_after =
        List.map (fun r -> Reunite.Analytic.data_path t r) remaining
      in
      Stats.Summary.add_int re_routers (count_diff before after);
      Stats.Summary.add_int re_routes (count_diff paths_before paths_after);
      (* HBH *)
      let hb =
        hbh_snapshot config.graph s.table ~source:s.source
          ~receivers:s.receivers
      in
      let ha =
        hbh_snapshot config.graph s.table ~source:s.source ~receivers:remaining
      in
      Stats.Summary.add_int hbh_routers (count_diff hb ha);
      (* Forward paths ({!Hbh.Analytic.data_path}) do not depend on the
         member set: no remaining receiver ever changes route in HBH. *)
      Stats.Summary.add_int hbh_routes 0
    done;
    ( (n, { routers_changed = Stats.Summary.mean re_routers;
            routes_changed = Stats.Summary.mean re_routes }),
      (n, { routers_changed = Stats.Summary.mean hbh_routers;
            routes_changed = Stats.Summary.mean hbh_routes }) )
  in
  let points = List.map measure sizes in
  {
    sizes;
    reunite = List.map fst points;
    hbh = List.map snd points;
  }

let to_groups result =
  let routers_re = Stats.Series.create "REUNITE" in
  let routers_hbh = Stats.Series.create "HBH" in
  let routes_re = Stats.Series.create "REUNITE" in
  let routes_hbh = Stats.Series.create "HBH" in
  List.iter
    (fun (x, p) ->
      Stats.Series.observe routers_re ~x p.routers_changed;
      Stats.Series.observe routes_re ~x p.routes_changed)
    result.reunite;
  List.iter
    (fun (x, p) ->
      Stats.Series.observe routers_hbh ~x p.routers_changed;
      Stats.Series.observe routes_hbh ~x p.routes_changed)
    result.hbh;
  ( Stats.Series.group ~title:"Routers whose state changes on one departure"
      ~x_label:"receivers" ~y_label:"routers changed"
      [ routers_re; routers_hbh ],
    Stats.Series.group
      ~title:"Remaining receivers rerouted by one departure"
      ~x_label:"receivers" ~y_label:"routes changed"
      [ routes_re; routes_hbh ] )
