(* Tests for graph construction, the encoded ISP topology and the
   random generators. *)

module G = Topology.Graph

let triangle () =
  G.make
    ~kinds:[| G.Router; G.Router; G.Router |]
    ~links:[ (0, 1, 2, 3); (1, 2, 4, 5); (0, 2, 6, 7) ]

(* ---- Graph core ------------------------------------------------------- *)

let test_counts () =
  let g = triangle () in
  Alcotest.(check int) "nodes" 3 (G.node_count g);
  Alcotest.(check int) "links" 3 (G.link_count g)

let test_directed_costs () =
  let g = triangle () in
  Alcotest.(check int) "cost 0->1" 2 (G.cost g 0 1);
  Alcotest.(check int) "cost 1->0" 3 (G.cost g 1 0);
  Alcotest.(check int) "cost 2->0" 7 (G.cost g 2 0)

let test_delay_defaults_to_cost () =
  let g = triangle () in
  Alcotest.(check (float 0.0)) "delay 0->1" 2.0 (G.delay g 0 1);
  Alcotest.(check (float 0.0)) "delay 1->0" 3.0 (G.delay g 1 0)

let test_set_cost () =
  let g = triangle () in
  G.set_cost g 0 1 9;
  Alcotest.(check int) "updated" 9 (G.cost g 0 1);
  Alcotest.(check int) "reverse untouched" 3 (G.cost g 1 0)

let test_missing_link () =
  let g =
    G.make ~kinds:[| G.Router; G.Router; G.Router |] ~links:[ (0, 1, 1, 1) ]
  in
  Alcotest.(check bool) "no 0-2 link" false (G.connected g 0 2);
  Alcotest.check_raises "cost raises" (Invalid_argument "Graph: no link 0-2")
    (fun () -> ignore (G.cost g 0 2))

let test_neighbors_sorted () =
  let g =
    G.make
      ~kinds:(Array.make 4 G.Router)
      ~links:[ (0, 3, 1, 1); (0, 1, 1, 1); (0, 2, 1, 1) ]
  in
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3 ] (G.neighbors g 0)

let test_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.make: self-loop")
    (fun () ->
      ignore (G.make ~kinds:[| G.Router |] ~links:[ (0, 0, 1, 1) ]))

let test_rejects_duplicate_link () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.make: duplicate link 1-0") (fun () ->
      ignore
        (G.make
           ~kinds:[| G.Router; G.Router |]
           ~links:[ (0, 1, 1, 1); (1, 0, 2, 2) ]))

let test_rejects_multihomed_host () =
  Alcotest.check_raises "host with 2 links"
    (Invalid_argument "Graph.make: host 2 must have exactly one link")
    (fun () ->
      ignore
        (G.make
           ~kinds:[| G.Router; G.Router; G.Host |]
           ~links:[ (0, 1, 1, 1); (0, 2, 1, 1); (1, 2, 1, 1) ]))

let test_host_router_mapping () =
  let b = Topology.Builder.create () in
  let r0 = Topology.Builder.add_router b in
  let r1 = Topology.Builder.add_router b in
  Topology.Builder.add_link b r0 r1 ();
  let h = Topology.Builder.add_host b ~router:r1 () in
  let g = Topology.Builder.build b in
  Alcotest.(check int) "router of host" r1 (G.router_of_host g h);
  Alcotest.(check (list int)) "hosts of router" [ h ] (Topo_check.hosts_of_router g r1);
  Alcotest.check_raises "router_of_host on router"
    (Invalid_argument "Graph.router_of_host: 0 is not a host") (fun () ->
      ignore (G.router_of_host g r0))

let test_randomize_costs () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 1 in
  G.randomize_costs g rng ~lo:1 ~hi:10;
  List.iter
    (fun (l : G.link) ->
      Alcotest.(check bool) "uv in range" true (l.cost_uv >= 1 && l.cost_uv <= 10);
      Alcotest.(check bool) "vu in range" true (l.cost_vu >= 1 && l.cost_vu <= 10);
      Alcotest.(check (float 0.0)) "delay = cost" (float_of_int l.cost_uv) l.delay_uv)
    (G.links g)

let test_symmetrize () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 1 in
  G.randomize_costs g rng ~lo:1 ~hi:10;
  G.symmetrize_costs g;
  Alcotest.(check (float 0.0)) "no asymmetric links" 0.0
    (Topo_check.asymmetric_link_fraction g)

let test_asymmetric_fraction_nonzero () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 1 in
  G.randomize_costs g rng ~lo:1 ~hi:10;
  (* With 48 links and 1/10 chance of equality per link, some
     asymmetry is (overwhelmingly) certain. *)
  Alcotest.(check bool) "mostly asymmetric" true
    (Topo_check.asymmetric_link_fraction g > 0.5)

let test_multicast_capability_flag () =
  let g = Topology.Isp.create () in
  Alcotest.(check bool) "default capable" true (G.multicast_capable g 0);
  G.set_multicast_capable g 0 false;
  Alcotest.(check bool) "flag cleared" false (G.multicast_capable g 0)

let test_copy_independent () =
  let g = Topology.Isp.create () in
  let g2 = G.copy g in
  G.set_cost g 0 12 99;
  Alcotest.(check bool) "copies diverge" true (G.cost g2 0 12 <> 99 || G.cost g 0 12 = G.cost g2 0 12)

(* ---- ISP topology ----------------------------------------------------- *)

let test_isp_shape () =
  let g = Topology.Isp.create () in
  Alcotest.(check int) "36 nodes" 36 (G.node_count g);
  Alcotest.(check int) "18 routers" 18 (List.length (G.routers g));
  Alcotest.(check int) "18 hosts" 18 (List.length (G.hosts g));
  Alcotest.(check int) "48 links (30 router + 18 access)" 48 (G.link_count g);
  Alcotest.(check bool) "connected" true (Topo_check.is_connected g)

(* The average router degree, as [Graph.pp] prints it. *)
let avg_router_degree g =
  Scanf.sscanf (Format.asprintf "%a" G.pp g)
    "graph: %_d nodes (%_d routers, %_d hosts), %_d links, avg router degree %f"
    Fun.id

let test_isp_average_degree () =
  let g = Topology.Isp.create () in
  let d = avg_router_degree g in
  Alcotest.(check bool) "paper's 3.33" true (Float.abs (d -. (10.0 /. 3.0)) < 0.01)

let test_isp_numbering () =
  let g = Topology.Isp.create () in
  Alcotest.(check bool) "source is host 18" true (G.is_host g Topology.Isp.source);
  Alcotest.(check int) "source attaches to router 0" 0
    (G.router_of_host g Topology.Isp.source);
  Alcotest.(check int) "17 receiver candidates" 17
    (List.length Topology.Isp.receiver_hosts);
  List.iter
    (fun h -> Alcotest.(check bool) "receiver is host" true (G.is_host g h))
    Topology.Isp.receiver_hosts

(* ---- Generators ------------------------------------------------------- *)

let test_random_connected () =
  let rng = Stats.Rng.create 4 in
  let g = Topology.Generators.random_connected rng ~n:50 ~avg_degree:8.6 in
  Alcotest.(check bool) "connected" true (Topo_check.is_connected g);
  Alcotest.(check int) "50 routers" 50 (List.length (G.routers g));
  Alcotest.(check int) "one host per router" 50 (List.length (G.hosts g));
  let d = avg_router_degree g in
  Alcotest.(check bool) "degree near 8.6" true (Float.abs (d -. 8.6) < 0.2)

let test_random_connected_deterministic () =
  let mk () =
    let rng = Stats.Rng.create 99 in
    Topology.Generators.random_connected rng ~n:20 ~avg_degree:4.0
  in
  let links g = List.map (fun (l : G.link) -> (l.u, l.v)) (G.links g) in
  Alcotest.(check (list (pair int int))) "same seed, same graph"
    (links (mk ())) (links (mk ()))

let test_random_connected_invalid_degree () =
  let rng = Stats.Rng.create 4 in
  Alcotest.(check bool) "too-low degree rejected" true
    (try
       ignore (Topology.Generators.random_connected rng ~n:10 ~avg_degree:0.5);
       false
     with Invalid_argument _ -> true)

let test_waxman_connected () =
  let rng = Stats.Rng.create 8 in
  let g = Topology.Generators.waxman rng ~n:40 in
  Alcotest.(check bool) "connected" true (Topo_check.is_connected g);
  Alcotest.(check int) "routers" 40 (List.length (G.routers g))

let test_grid () =
  let g = Topology.Generators.grid ~hosts:false ~rows:3 ~cols:4 () in
  Alcotest.(check int) "nodes" 12 (G.node_count g);
  Alcotest.(check int) "links" ((2 * 4) + (3 * 3)) (G.link_count g);
  Alcotest.(check bool) "connected" true (Topo_check.is_connected g)

let test_ring () =
  let g = Topology.Generators.ring ~hosts:false ~n:6 () in
  Alcotest.(check int) "links" 6 (G.link_count g);
  List.iter
    (fun r -> Alcotest.(check int) "degree 2" 2 (G.degree g r))
    (G.routers g)

let test_star () =
  let g = Topology.Generators.star ~hosts:false ~spokes:5 () in
  Alcotest.(check int) "hub degree" 5 (G.degree g 0);
  Alcotest.(check int) "nodes" 6 (G.node_count g)

let test_line () =
  let g = Topology.Generators.line ~hosts:false ~n:5 () in
  Alcotest.(check int) "links" 4 (G.link_count g);
  Alcotest.(check int) "end degree" 1 (G.degree g 0)

let test_balanced_tree () =
  let g = Topology.Generators.balanced_tree ~hosts:false ~depth:3 ~fanout:2 () in
  Alcotest.(check int) "nodes 1+2+4+8" 15 (G.node_count g);
  Alcotest.(check int) "links" 14 (G.link_count g);
  Alcotest.(check bool) "connected" true (Topo_check.is_connected g)

let test_full_mesh () =
  let g = Topology.Generators.full_mesh ~hosts:false ~n:5 () in
  Alcotest.(check int) "links" 10 (G.link_count g)

let test_dumbbell () =
  let g = Topology.Generators.dumbbell ~hosts:false ~left:3 ~right:4 () in
  Alcotest.(check int) "nodes" 9 (G.node_count g);
  Alcotest.(check bool) "bottleneck exists" true (G.connected g 0 1)

let test_transit_stub () =
  let rng = Stats.Rng.create 12 in
  let g =
    Topology.Generators.transit_stub ~hosts:false rng ~transit:4
      ~stubs_per_transit:2 ~stub_size:3
  in
  Alcotest.(check int) "nodes 4 + 4*2*3" 28 (G.node_count g);
  Alcotest.(check bool) "connected" true (Topo_check.is_connected g)

(* Structural digest: node kinds, degrees and adjacency — byte-equal
   digests mean byte-equal topologies. *)
let graph_digest g =
  let buf = Buffer.create 1024 in
  for i = 0 to G.node_count g - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d%c:" i (if G.is_router g i then 'r' else 'h'));
    List.iter (fun j -> Buffer.add_string buf (Printf.sprintf "%d," j))
      (G.neighbors g i);
    Buffer.add_char buf ';'
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_power_law () =
  let rng = Stats.Rng.create 7 in
  let g = Topology.Generators.power_law ~hosts:false rng ~n:600 in
  Alcotest.(check int) "nodes" 600 (G.node_count g);
  Alcotest.(check bool) "connected" true (Topo_check.is_connected g);
  (* Heavy tail: the hubs tower over the m=2 arrivals. *)
  let degs = List.map (G.degree g) (G.routers g) in
  let dmax = List.fold_left max 0 degs in
  let small = List.length (List.filter (fun d -> d <= 4) degs) in
  Alcotest.(check bool) "has a hub (max degree >= 12)" true (dmax >= 12);
  Alcotest.(check bool) "most routers stay near degree m"
    true (small * 10 >= 600 * 6)

let test_power_law_deterministic () =
  let g1 = Topology.Generators.power_law (Stats.Rng.create 5) ~n:400 in
  let g2 = Topology.Generators.power_law (Stats.Rng.create 5) ~n:400 in
  let g3 = Topology.Generators.power_law (Stats.Rng.create 6) ~n:400 in
  Alcotest.(check string) "same seed, same bytes" (graph_digest g1)
    (graph_digest g2);
  Alcotest.(check bool) "different seed differs" true
    (graph_digest g1 <> graph_digest g3)

let test_as_hierarchy () =
  let rng = Stats.Rng.create 11 in
  let g = Topology.Generators.as_hierarchy ~hosts:false rng ~n:500 in
  Alcotest.(check int) "nodes" 500 (G.node_count g);
  Alcotest.(check bool) "connected" true (Topo_check.is_connected g);
  (* Stubs (the third tier) keep degree 1-2; the backbone does not. *)
  let core_deg = G.degree g 0 in
  Alcotest.(check bool) "core router degree >= 3" true (core_deg >= 3)

let test_as_hierarchy_deterministic () =
  let d s = graph_digest (Topology.Generators.as_hierarchy (Stats.Rng.create s) ~n:300) in
  Alcotest.(check string) "same seed, same bytes" (d 9) (d 9);
  Alcotest.(check bool) "different seed differs" true (d 9 <> d 10)

let test_internet_scale_build () =
  (* The churn workload's floor: n >= 5k must build fast and land
     connected (the Builder link index keeps this O(E)). *)
  let g = Topology.Generators.power_law ~hosts:false (Stats.Rng.create 1) ~n:5000 in
  Alcotest.(check int) "nodes" 5000 (G.node_count g);
  Alcotest.(check bool) "connected" true (Topo_check.is_connected g);
  let h = Topology.Generators.as_hierarchy ~hosts:false (Stats.Rng.create 2) ~n:5000 in
  Alcotest.(check int) "nodes" 5000 (G.node_count h);
  Alcotest.(check bool) "connected" true (Topo_check.is_connected h)

(* ---- Properties ------------------------------------------------------- *)

let prop_power_law_connected =
  QCheck.Test.make ~name:"power_law always connected" ~count:50
    QCheck.(pair (int_range 4 200) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      Topo_check.is_connected (Topology.Generators.power_law ~hosts:false rng ~n))

let prop_as_hierarchy_connected =
  QCheck.Test.make ~name:"as_hierarchy always connected" ~count:50
    QCheck.(pair (int_range 41 300) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      Topo_check.is_connected (Topology.Generators.as_hierarchy ~hosts:false rng ~n))

let prop_random_graphs_connected =
  QCheck.Test.make ~name:"random_connected always connected" ~count:50
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      let deg = Float.min (float_of_int (n - 1)) 3.0 in
      let deg = Float.max deg (2.0 *. float_of_int (n - 1) /. float_of_int n) in
      let g = Topology.Generators.random_connected ~hosts:false rng ~n ~avg_degree:deg in
      Topo_check.is_connected g)

let prop_waxman_connected =
  QCheck.Test.make ~name:"waxman always connected" ~count:50
    QCheck.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Stats.Rng.create seed in
      Topo_check.is_connected (Topology.Generators.waxman ~hosts:false rng ~n))

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "directed costs" `Quick test_directed_costs;
          Alcotest.test_case "delay defaults" `Quick test_delay_defaults_to_cost;
          Alcotest.test_case "set cost" `Quick test_set_cost;
          Alcotest.test_case "missing link" `Quick test_missing_link;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "reject self loop" `Quick test_rejects_self_loop;
          Alcotest.test_case "reject duplicate" `Quick test_rejects_duplicate_link;
          Alcotest.test_case "reject multihomed host" `Quick test_rejects_multihomed_host;
          Alcotest.test_case "host mapping" `Quick test_host_router_mapping;
          Alcotest.test_case "randomize costs" `Quick test_randomize_costs;
          Alcotest.test_case "symmetrize" `Quick test_symmetrize;
          Alcotest.test_case "asymmetry present" `Quick test_asymmetric_fraction_nonzero;
          Alcotest.test_case "capability flag" `Quick test_multicast_capability_flag;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
        ] );
      ( "isp",
        [
          Alcotest.test_case "shape" `Quick test_isp_shape;
          Alcotest.test_case "average degree" `Quick test_isp_average_degree;
          Alcotest.test_case "numbering" `Quick test_isp_numbering;
        ] );
      ( "generators",
        [
          Alcotest.test_case "random_connected" `Quick test_random_connected;
          Alcotest.test_case "deterministic" `Quick test_random_connected_deterministic;
          Alcotest.test_case "invalid degree" `Quick test_random_connected_invalid_degree;
          Alcotest.test_case "waxman" `Quick test_waxman_connected;
          Alcotest.test_case "grid" `Quick test_grid;
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "star" `Quick test_star;
          Alcotest.test_case "line" `Quick test_line;
          Alcotest.test_case "balanced tree" `Quick test_balanced_tree;
          Alcotest.test_case "full mesh" `Quick test_full_mesh;
          Alcotest.test_case "dumbbell" `Quick test_dumbbell;
          Alcotest.test_case "transit stub" `Quick test_transit_stub;
          Alcotest.test_case "power law" `Quick test_power_law;
          Alcotest.test_case "power law deterministic" `Quick
            test_power_law_deterministic;
          Alcotest.test_case "as hierarchy" `Quick test_as_hierarchy;
          Alcotest.test_case "as hierarchy deterministic" `Quick
            test_as_hierarchy_deterministic;
          Alcotest.test_case "internet scale build" `Quick
            test_internet_scale_build;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_graphs_connected;
            prop_waxman_connected;
            prop_power_law_connected;
            prop_as_hierarchy_connected;
          ] );
    ]
