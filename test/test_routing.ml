(* Tests for unicast routing: Dijkstra against Bellman-Ford and
   Floyd-Warshall, forwarding consistency, asymmetry measurement. *)

module G = Topology.Graph

let diamond () =
  (* 0 -- 1 -- 3 and 0 -- 2 -- 3 with asymmetric costs: the cheap way
     0->3 is via 1, the cheap way 3->0 is via 2. *)
  G.make
    ~kinds:(Array.make 4 G.Router)
    ~links:
      [
        (0, 1, 1, 9) (* cheap out, expensive back *);
        (1, 3, 1, 9);
        (0, 2, 9, 1);
        (2, 3, 9, 1);
      ]

let random_graph seed n =
  let rng = Stats.Rng.create seed in
  let g = Topology.Generators.random_connected ~hosts:false rng ~n ~avg_degree:3.0 in
  G.randomize_costs g rng ~lo:1 ~hi:10;
  g

(* Fail each link with probability 1/4 (the graph may disconnect): the
   references must treat down links as absent exactly as SPF does. *)
let fail_random_links g rng =
  List.iter
    (fun (l : G.link) ->
      if Stats.Rng.int rng 4 = 0 then G.set_link_up g l.u l.v false)
    (G.links g)

(* ---- Dijkstra --------------------------------------------------------- *)

(* The first node whose next hop or distance toward [d] differs between
   the bucket-queue kernel and the binary-heap reference over the same
   view, or the two kernels' different errors; [None] when they
   agree. *)
let reference_mismatch (view : G.view) d =
  let module R = Routing_oracles.Spf_reference in
  let attempt f = match f () with t -> Ok t | exception Invalid_argument m -> Error m in
  match
    ( attempt (fun () -> Routing.Dijkstra.of_view view d),
      attempt (fun () -> R.of_view view d) )
  with
  | Ok tree, Ok r ->
      let n = Array.length view.G.stub in
      let rec first u =
        if u = n then None
        else if
          Routing.Dijkstra.next tree u <> R.next r u
          || Routing.Dijkstra.dist tree u <> R.dist r u
        then
          Some
            (Printf.sprintf "to %d, node %d: next %d dist %d, reference next %d dist %d"
               d u (Routing.Dijkstra.next tree u) (Routing.Dijkstra.dist tree u)
               (R.next r u) (R.dist r u))
        else first (u + 1)
      in
      first 0
  | Error a, Error b when a = b -> None
  | Error m, Ok _ -> Some (Printf.sprintf "to %d: kernel raised %s" d m)
  | Ok _, Error m -> Some (Printf.sprintf "to %d: reference raised %s" d m)
  | Error a, Error b -> Some (Printf.sprintf "to %d: %s, reference %s" d a b)

let check_reference g =
  let view = G.routing_view g in
  for d = 0 to G.node_count g - 1 do
    Option.iter Alcotest.fail (reference_mismatch view d)
  done

let test_dijkstra_trivial () =
  let g = diamond () in
  let t = Routing.Dijkstra.to_dest g 0 in
  Alcotest.(check int) "self distance" 0 (Routing.Dijkstra.distance t 0);
  Alcotest.(check bool) "no next hop at dest" true
    (Routing.Dijkstra.next_hop t 0 = None)

let test_dijkstra_asymmetric_paths () =
  let g = diamond () in
  let to3 = Routing.Dijkstra.to_dest g 3 in
  let to0 = Routing.Dijkstra.to_dest g 0 in
  Alcotest.(check (list int)) "0 -> 3 via 1" [ 0; 1; 3 ] (Routing.Dijkstra.path to3 0);
  Alcotest.(check (list int)) "3 -> 0 via 2" [ 3; 2; 0 ] (Routing.Dijkstra.path to0 3);
  Alcotest.(check int) "forward distance" 2 (Routing.Dijkstra.distance to3 0);
  Alcotest.(check int) "reverse distance" 2 (Routing.Dijkstra.distance to0 3)

let test_dijkstra_unreachable () =
  let g =
    G.make ~kinds:(Array.make 3 G.Router) ~links:[ (0, 1, 1, 1) ]
  in
  check_reference g;
  let t = Routing.Dijkstra.to_dest g 2 in
  Alcotest.(check bool) "0 cannot reach 2" false (Routing.Dijkstra.reachable t 0);
  Alcotest.check_raises "path raises"
    (Invalid_argument "Dijkstra.path: 0 cannot reach 2") (fun () ->
      ignore (Routing.Dijkstra.path t 0))

let test_dijkstra_tie_break_smallest_id () =
  (* Two equal-cost next hops 1 and 2 toward 3: hop via 1 chosen. *)
  let g =
    G.make
      ~kinds:(Array.make 4 G.Router)
      ~links:[ (0, 1, 1, 1); (0, 2, 1, 1); (1, 3, 1, 1); (2, 3, 1, 1) ]
  in
  check_reference g;
  let t = Routing.Dijkstra.to_dest g 3 in
  Alcotest.(check (option int)) "smallest id wins" (Some 1)
    (Routing.Dijkstra.next_hop t 0)

(* Distances are stored as int32: a path cost up to [Int32.max_int]
   fits, one past it is refused rather than wrapped. *)
let test_dijkstra_int32_bound () =
  let g =
    G.make
      ~kinds:(Array.make 3 G.Router)
      ~links:[ (0, 1, 1 lsl 30, 1); (1, 2, (1 lsl 30) - 1, 1) ]
  in
  Alcotest.(check int) "cost Int32.max_int fits" (Int32.to_int Int32.max_int)
    (Routing.Dijkstra.distance (Routing.Dijkstra.to_dest g 2) 0);
  G.set_cost g 1 2 (1 lsl 30);
  check_reference g;
  Alcotest.(check bool) "cost past Int32.max_int raises" true
    (match Routing.Dijkstra.to_dest g 2 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "the reverse direction still fits" 2
    (Routing.Dijkstra.distance (Routing.Dijkstra.to_dest g 0) 2)

(* Links of cost 0 are refused wherever a cost enters a graph: over a
   link of cost 0 both ways, tied nodes would pick each other as next
   hop and forward in a loop. *)
let test_dijkstra_zero_cost_link () =
  let refused what f =
    Alcotest.(check bool) (what ^ " refuses cost 0") true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let links = [ (0, 1, 1, 1); (1, 2, 2, 2) ] in
  let make links = G.make ~kinds:(Array.make 3 G.Router) ~links in
  refused "Graph.make" (fun () -> make ((2, 0, 0, 1) :: links));
  refused "Graph.make (reverse direction)" (fun () ->
      make ((2, 0, 1, 0) :: links));
  let g = make links in
  refused "Graph.set_cost" (fun () -> G.set_cost g 1 2 0);
  refused "Graph.randomize_costs" (fun () ->
      G.randomize_costs g (Stats.Rng.create 1) ~lo:0 ~hi:2);
  Alcotest.(check (list int)) "the graph kept its costs" [ 1; 1; 2; 2 ]
    [ G.cost g 0 1; G.cost g 1 0; G.cost g 1 2; G.cost g 2 1 ];
  let b = Topology.Builder.create () in
  let r0 = Topology.Builder.add_router b and r1 = Topology.Builder.add_router b in
  refused "Builder.add_link" (fun () ->
      Topology.Builder.add_link b r0 r1 ~cost:0 ());
  refused "Builder.add_host" (fun () ->
      Topology.Builder.add_host b ~router:r0 ~cost_back:0 ());
  Topology.Builder.add_link b r0 r1 ();
  Alcotest.(check int) "the builder holds the good link only" 1
    (G.link_count (Topology.Builder.build b))

(* A cached in-tree keeps one word per node: two int32 words a node in
   one buffer, plus a constant five words (the 3-word record, the
   buffer's header and its padding word). *)
let test_tree_one_word_per_node () =
  List.iter
    (fun n ->
      let g = random_graph n n in
      let tree = Routing.Table.in_tree (Routing.Table.compute g) 0 in
      Alcotest.(check bool)
        (Printf.sprintf "%d nodes: at most %d words" n (n + 5))
        true
        (Obj.reachable_words (Obj.repr tree) <= n + 5))
    [ 10; 100; 1000 ]

let test_dijkstra_matches_bellman_ford () =
  List.iter
    (fun with_failures ->
      for seed = 1 to 10 do
        let g = random_graph seed 30 in
        if with_failures then
          fail_random_links g (Stats.Rng.create (500 + seed));
        let d = Stats.Rng.int (Stats.Rng.create seed) 30 in
        let dij = Routing.Dijkstra.to_dest g d in
        let bf = Routing_oracles.Bellman_ford.to_dest g d in
        for u = 0 to 29 do
          Alcotest.(check int)
            (Printf.sprintf "seed %d node %d failures %b" seed u with_failures)
            bf.dist.(u)
            (if Routing.Dijkstra.reachable dij u then
               Routing.Dijkstra.distance dij u
             else max_int)
        done
      done)
    [ false; true ]

let test_table_matches_floyd_warshall () =
  List.iter
    (fun with_failures ->
      for seed = 1 to 5 do
        let g = random_graph (100 + seed) 20 in
        if with_failures then
          fail_random_links g (Stats.Rng.create (600 + seed));
        let table = Routing.Table.compute g in
        let fw = Routing_oracles.Floyd_warshall.compute g in
        for u = 0 to 19 do
          for v = 0 to 19 do
            let expected = Routing_oracles.Floyd_warshall.distance fw u v in
            let got =
              if Routing.Table.reachable table u v then
                Routing.Table.distance table u v
              else max_int
            in
            Alcotest.(check int)
              (Printf.sprintf "d(%d,%d) failures %b" u v with_failures)
              expected got
          done
        done
      done)
    [ false; true ]

(* ---- Table / forwarding consistency ----------------------------------- *)

let test_hop_by_hop_follows_path () =
  (* Walking next hops one at a time reproduces Table.path exactly —
     the property that makes the event simulator agree with the
     analytic builders. *)
  for seed = 1 to 5 do
    let g = random_graph (200 + seed) 25 in
    let table = Routing.Table.compute g in
    for u = 0 to 24 do
      for v = 0 to 24 do
        if u <> v && Routing.Table.reachable table u v then begin
          let rec walk w acc =
            if w = v then List.rev acc
            else
              match Routing.Table.next_hop table w ~dest:v with
              | Some next -> walk next (next :: acc)
              | None -> List.rev acc
          in
          Alcotest.(check (list int)) "hop-by-hop = path"
            (Routing.Table.path table u v)
            (walk u [ u ])
        end
      done
    done
  done

let test_path_cost_equals_distance () =
  let g = random_graph 300 25 in
  let table = Routing.Table.compute g in
  for u = 0 to 24 do
    for v = 0 to 24 do
      if u <> v then
        Alcotest.(check int) "sum of link costs = distance"
          (Routing.Table.distance table u v)
          (Topo_check.path_cost g (Routing.Table.path table u v))
    done
  done

(* ---- Path utilities ---------------------------------------------------- *)

let test_path_links () =
  Alcotest.(check (list (pair int int))) "links" [ (1, 2); (2, 3) ]
    (Routing.Path.links [ 1; 2; 3 ]);
  Alcotest.(check (list (pair int int))) "singleton" [] (Routing.Path.links [ 7 ])

let test_path_delay_directional () =
  let g = diamond () in
  Alcotest.(check (float 0.0)) "forward" 2.0 (Routing.Path.delay g [ 0; 1; 3 ]);
  Alcotest.(check (float 0.0)) "backward" 18.0 (Routing.Path.delay g [ 3; 1; 0 ])

let test_path_valid () =
  let g = diamond () in
  Alcotest.(check bool) "valid" true (Topo_check.path_valid g [ 0; 1; 3 ]);
  Alcotest.(check bool) "non-adjacent" false (Topo_check.path_valid g [ 0; 3 ]);
  Alcotest.(check bool) "repeated node" false (Topo_check.path_valid g [ 0; 1; 0 ])

let test_path_hops () =
  Alcotest.(check int) "hops" 2 (Routing.Path.hops [ 0; 1; 3 ]);
  Alcotest.(check int) "empty" 0 (Routing.Path.hops [])

(* ---- Bellman-Ford extras ----------------------------------------------- *)

let test_bellman_ford_iterations_bounded () =
  let g = random_graph 400 30 in
  let r = Routing_oracles.Bellman_ford.to_dest g 0 in
  Alcotest.(check bool) "terminates within n+1 rounds" true (r.iterations <= 31)

(* ---- Asymmetry --------------------------------------------------------- *)

let test_asymmetry_symmetric_graph () =
  let g = Topology.Isp.create () in
  (* Unit costs: all routes symmetric up to tie-breaking, and the
     deterministic tie-break is identical in both directions only if
     paths are unique; measure on unit costs perturbed to be unique. *)
  G.symmetrize_costs g;
  let table = Routing.Table.compute g in
  let r = Routing.Asymmetry.measure table in
  Alcotest.(check (float 0.0)) "zero delay gap on symmetric costs" 0.0
    r.mean_delay_gap

let test_asymmetry_random_costs () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 7 in
  G.randomize_costs g rng ~lo:1 ~hi:10;
  let table = Routing.Table.compute g in
  let r = Routing.Asymmetry.measure table in
  Alcotest.(check bool) "many asymmetric routes" true (r.asymmetric_fraction > 0.2);
  Alcotest.(check bool) "pairs counted" true (r.pairs = 18 * 17 / 2)

let test_pair_asymmetric_diamond () =
  let g = diamond () in
  let table = Routing.Table.compute g in
  Alcotest.(check int) "0-3 asymmetric" 1
    (Routing.Asymmetry.measure ~nodes:[ 0; 3 ] table).asymmetric_pairs

(* ---- Link-state IGP ------------------------------------------------------ *)

let converge_ls g =
  let engine = Eventsim.Engine.create () in
  let ls = Routing_oracles.Link_state.create engine g in
  Routing_oracles.Link_state.start ls;
  Eventsim.Engine.run engine;
  (engine, ls)

let test_link_state_converges () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 5 in
  G.randomize_costs g rng ~lo:1 ~hi:10;
  let _, ls = converge_ls g in
  Alcotest.(check bool) "flooding converged" true (Routing_oracles.Link_state.converged ls);
  let s = Routing_oracles.Link_state.stats ls in
  Alcotest.(check int) "one LSA per router" 18 s.lsas_originated;
  Alcotest.(check bool) "flooding used messages" true (s.messages_sent > 18)

let test_link_state_agrees_with_centralized () =
  for seed = 1 to 5 do
    let g = random_graph (500 + seed) 15 in
    let _, ls = converge_ls g in
    let table = Routing.Table.compute g in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d distributed = centralized" seed)
      true
      (Routing_oracles.Link_state.agrees_with_table ls table)
  done

let test_link_state_host_destinations () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 9 in
  G.randomize_costs g rng ~lo:1 ~hi:10;
  let _, ls = converge_ls g in
  let table = Routing.Table.compute g in
  (* Routes toward hosts (announced as router stub links) agree too. *)
  List.iter
    (fun h ->
      Alcotest.(check (option int))
        (Printf.sprintf "next hop of router 5 toward host %d" h)
        (Routing.Table.next_hop table 5 ~dest:h)
        (Routing_oracles.Link_state.next_hop ls 5 ~dest:h))
    (G.hosts g)

let test_link_state_reconvergence () =
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 11 in
  G.randomize_costs g rng ~lo:1 ~hi:10;
  let engine, ls = converge_ls g in
  (* Change a link cost; stale LSDBs disagree until re-origination. *)
  G.set_cost g 0 12 99;
  Routing_oracles.Link_state.reoriginate ls 0;
  Eventsim.Engine.run engine;
  Alcotest.(check bool) "re-converged" true (Routing_oracles.Link_state.converged ls);
  let table = Routing.Table.compute g in
  Alcotest.(check bool) "agrees after change" true
    (Routing_oracles.Link_state.agrees_with_table ls table)

let test_link_state_distance_matches () =
  let g = random_graph 600 12 in
  let _, ls = converge_ls g in
  let table = Routing.Table.compute g in
  for u = 0 to 11 do
    for v = 0 to 11 do
      let expected =
        if Routing.Table.reachable table u v then
          Some (Routing.Table.distance table u v)
        else None
      in
      Alcotest.(check (option int))
        (Printf.sprintf "d(%d,%d)" u v)
        expected
        (Routing_oracles.Link_state.distance ls u v)
    done
  done

(* ---- Properties -------------------------------------------------------- *)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"distances satisfy triangle inequality" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = random_graph seed 15 in
      let table = Routing.Table.compute g in
      let ok = ref true in
      for u = 0 to 14 do
        for v = 0 to 14 do
          for w = 0 to 14 do
            let d a b = Routing.Table.distance table a b in
            if d u v > d u w + d w v then ok := false
          done
        done
      done;
      !ok)

(* The reference next hop of [u] toward [bf]'s destination: the
   smallest-id neighbour [v] over an up link with
   [dist v + cost u v = dist u], distances from Bellman-Ford; -1 at the
   destination or when unreachable. *)
let smallest_tied_next g (bf : Routing_oracles.Bellman_ford.result) u =
  if u = bf.dest || bf.dist.(u) = max_int then -1
  else
    List.sort compare (G.neighbors g u)
    |> List.find_opt (fun v ->
           bf.dist.(v) < max_int && G.link_up g u v
           && bf.dist.(v) + G.cost g u v = bf.dist.(u))
    |> Option.value ~default:(-1)

(* The tie-break every delivery digest depends on, on graphs with many
   ties (costs 1..3) and failed links: [next u] is the smallest-id
   neighbour [v] over an up link with [dist v + cost u v = dist u],
   distances taken from Bellman-Ford. *)
let prop_next_hop_smallest_tied_neighbour =
  QCheck.Test.make ~name:"next hop is the smallest-id tied up neighbour"
    ~count:50
    QCheck.(int_range 0 1000)
    (fun seed ->
      let n = 20 in
      let rng = Stats.Rng.create seed in
      let g =
        Topology.Generators.random_connected ~hosts:false rng ~n ~avg_degree:4.0
      in
      G.randomize_costs g rng ~lo:1 ~hi:3;
      fail_random_links g rng;
      let d = Stats.Rng.int rng n in
      let tree = Routing.Dijkstra.to_dest g d in
      let bf = Routing_oracles.Bellman_ford.to_dest g d in
      List.for_all
        (fun u -> Routing.Dijkstra.next tree u = smallest_tied_next g bf u)
        (List.init n Fun.id))

(* A router core (random spanning tree plus chords) with degree-1
   routers hanging off it, sometimes in chains, sometimes a detached
   router pair, and hosts on any router: the stub shapes the kernel
   skips, which [random_connected ~hosts:false] never makes. *)
let stubby_graph rng =
  let core = 4 + Stats.Rng.int rng 8 in
  let pendants = 1 + Stats.Rng.int rng 4 in
  let pair = Stats.Rng.int rng 2 = 0 in
  let routers = core + pendants + if pair then 2 else 0 in
  let hosts = 1 + Stats.Rng.int rng 4 in
  let links = ref [] in
  let linked u v =
    List.exists
      (fun (a, b, _, _) -> (a = u && b = v) || (a = v && b = u))
      !links
  in
  let link u v = if u <> v && not (linked u v) then links := (u, v, 1, 1) :: !links in
  for i = 1 to core - 1 do
    link (Stats.Rng.int rng i) i
  done;
  for _ = 1 to core / 2 do
    link (Stats.Rng.int rng core) (Stats.Rng.int rng core)
  done;
  for i = core to core + pendants - 1 do
    link (Stats.Rng.int rng i) i
  done;
  if pair then link (routers - 2) (routers - 1);
  for h = routers to routers + hosts - 1 do
    link (Stats.Rng.int rng routers) h
  done;
  let kinds =
    Array.init (routers + hosts) (fun i -> if i < routers then G.Router else G.Host)
  in
  let g = G.make ~kinds ~links:(List.rev !links) in
  G.randomize_costs g rng ~lo:1 ~hi:3;
  g

(* [to_dest] against Bellman-Ford and the smallest-id tied-neighbour
   rule, on stub-heavy graphs with many ties (costs 1..3) and failed
   links, across random sequences of every routing mutator; and
   [Table]'s cache semantics across the same mutations: a cached tree
   is a snapshot that no mutation touches, and the first query after a
   mutation sees the current graph.  A mutator that forgot to bump the
   graph's generation would leave SPF on a stale view and fail
   here. *)
let prop_kernel_tracks_mutations =
  QCheck.Test.make ~name:"SPF on stubs tracks every routing mutator"
    ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let g = stubby_graph rng in
      let n = G.node_count g in
      let snapshot = G.save_links g in
      fail_random_links g rng;
      let table = ref (Routing.Table.compute g) in
      (* Cached trees with their distances and next hops read out at
         caching time. *)
      let cached = Hashtbl.create n in
      let check msg b = if not b then QCheck.Test.fail_reportf "seed %d: %s" seed msg in
      let expected_tree d =
        let bf = Routing_oracles.Bellman_ford.to_dest g d in
        (bf.dist, Array.init n (smallest_tied_next g bf))
      in
      let contents tree =
        ( Array.init n (Routing.Dijkstra.dist tree),
          Array.init n (Routing.Dijkstra.next tree) )
      in
      let matches d tree = contents tree = expected_tree d in
      let query_table () =
        for d = 0 to n - 1 do
          if Stats.Rng.int rng 2 = 0 then begin
            let tree = Routing.Table.in_tree !table d in
            match Hashtbl.find_opt cached d with
            | Some (t0, at_caching) ->
                check "cached tree replaced"
                  (tree == t0 && contents tree = at_caching)
            | None ->
                check (Printf.sprintf "first query of %d is stale" d) (matches d tree);
                Hashtbl.replace cached d (tree, contents tree)
          end
        done
      in
      let random_link () =
        let links = G.links g in
        List.nth links (Stats.Rng.int rng (List.length links))
      in
      for _ = 1 to 12 do
        for d = 0 to n - 1 do
          check (Printf.sprintf "to_dest %d" d) (matches d (Routing.Dijkstra.to_dest g d))
        done;
        query_table ();
        (match Stats.Rng.int rng 6 with
        | 0 ->
            let l = random_link () in
            G.set_cost g l.u l.v (1 + Stats.Rng.int rng 3)
        | 1 ->
            let l = random_link () in
            G.set_link_up g l.u l.v (not l.up)
        | 2 -> G.randomize_costs g rng ~lo:1 ~hi:3
        | 3 -> G.restore_links g snapshot
        | 4 -> G.symmetrize_costs g
        | _ ->
            (* Every link: swap in its reverse cost, redraw the other. *)
            List.iter
              (fun (l : G.link) ->
                let c = l.cost_vu in
                G.set_cost g l.u l.v c;
                G.set_cost g l.v l.u (1 + Stats.Rng.int rng 3))
              (G.links g));
        (* Now and then start over on a fresh table: its first
           queries come after this mutation and must see it. *)
        if Stats.Rng.int rng 3 = 0 then begin
          table := Routing.Table.compute g;
          Hashtbl.reset cached
        end
      done;
      true)

(* [of_view] reuses one per-domain scratch across calls, grown to the
   largest graph seen.  Interleaved calls over graphs of changing size
   (stub-heavy, failed links, many ties) must each equal Bellman-Ford
   and the smallest-id tied-neighbour rule: a kernel that reads scratch
   left over from an earlier, larger graph fails here.  Mutants it
   kills on every run: skipping the [dist] refill, keeping the
   destination's [next] from an earlier call, and growing the scratch
   only on first use.  The same
   call sequence on two domains through {!Stats.Parallel} (each with
   its own graphs, since a graph caches its routing view) must then
   read exactly what the sequential run read. *)
let prop_scratch_reuse =
  QCheck.Test.make ~name:"SPF scratch reuse across graph sizes and domains"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let calls () =
        let rng = Stats.Rng.create seed in
        let graphs = Array.init 4 (fun _ -> stubby_graph rng) in
        Array.iter (fun g -> fail_random_links g rng) graphs;
        List.init 24 (fun _ ->
            let g = graphs.(Stats.Rng.int rng (Array.length graphs)) in
            (g, Stats.Rng.int rng (G.node_count g)))
      in
      let read (g, d) =
        let tree = Routing.Dijkstra.to_dest g d in
        let n = G.node_count g in
        (Array.init n (Routing.Dijkstra.dist tree),
         Array.init n (Routing.Dijkstra.next tree))
      in
      let sequential = List.map read (calls ()) in
      List.iter2
        (fun (g, d) got ->
          let bf = Routing_oracles.Bellman_ford.to_dest g d in
          let n = G.node_count g in
          if got <> (bf.dist, Array.init n (smallest_tied_next g bf)) then
            QCheck.Test.fail_reportf "seed %d: to_dest %d on %d nodes" seed d n)
        (calls ()) sequential;
      Array.for_all (( = ) sequential)
        (Stats.Parallel.map ~jobs:2 2 (fun _ -> List.map read (calls ()))))

(* The bucket queue against the binary-heap reference on every tree of
   a random graph: random-connected, power-law, grid or ISP, hosts
   attached (stubs), a quarter of the links down, and costs drawn from
   1..2 (many ties), the paper's 1..10 (width-1 buckets), 1..10^6
   (wide buckets, nodes expanded out of order) or all 2^24 (wide
   buckets, every path a tie).  Every node's next hop and distance
   toward every destination must agree. *)
let prop_bucket_queue_matches_reference =
  QCheck.Test.make ~name:"bucket queue = binary-heap reference on every tree"
    ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let g =
        match Stats.Rng.int rng 4 with
        | 0 ->
            Topology.Generators.random_connected rng
              ~n:(5 + Stats.Rng.int rng 40) ~avg_degree:3.0
        | 1 ->
            Topology.Generators.power_law ~m:(1 + Stats.Rng.int rng 2) rng
              ~n:(5 + Stats.Rng.int rng 60)
        | 2 ->
            Topology.Generators.grid ~rows:(1 + Stats.Rng.int rng 6)
              ~cols:(2 + Stats.Rng.int rng 6) ()
        | _ -> Topology.Isp.create ()
      in
      let lo, hi =
        [| (1, 2); (1, 10); (1, 1_000_000); (1 lsl 24, 1 lsl 24) |].(Stats.Rng.int rng 4)
      in
      G.randomize_costs g rng ~lo ~hi;
      fail_random_links g rng;
      let view = G.routing_view g in
      for d = 0 to G.node_count g - 1 do
        Option.iter
          (QCheck.Test.fail_reportf "seed %d, costs %d..%d: %s" seed lo hi)
          (reference_mismatch view d)
      done;
      true)

let prop_path_endpoints =
  QCheck.Test.make ~name:"paths start and end correctly" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g = random_graph seed 15 in
      let table = Routing.Table.compute g in
      let ok = ref true in
      for u = 0 to 14 do
        for v = 0 to 14 do
          let p = Routing.Table.path table u v in
          if List.hd p <> u then ok := false;
          if List.nth p (List.length p - 1) <> v then ok := false;
          if not (Topo_check.path_valid g p) then ok := false
        done
      done;
      !ok)

(* The lazy table's contract: after any mix of queries, link failures
   and restores through [set_link_up] and direct cost changes, a
   [reconverge] leaves a cache that answers exactly like a table
   computed from scratch on the current graph.  Changes pile up between
   reconvergences: failures alone take the targeted path, and a
   failure mixed with a restore or a cost change (made before or after
   it) must take the full one. *)
let prop_lazy_table_matches_fresh =
  QCheck.Test.make ~name:"lazy table = from-scratch after any mutations"
    ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let n = 12 in
      let g = random_graph seed n in
      let rng = Stats.Rng.create (seed + 1) in
      let table = Routing.Table.compute g in
      let ok = ref true in
      let reconverge_and_check () =
        ignore (Routing.Table.reconverge table);
        let fresh = Routing.Table.compute g in
        for d = 0 to n - 1 do
          for u = 0 to n - 1 do
            if
              Routing.Table.next_hop table u ~dest:d
              <> Routing.Table.next_hop fresh u ~dest:d
            then ok := false
          done
        done
      in
      let random_link () =
        let links = G.links g in
        List.nth links (Stats.Rng.int rng (List.length links))
      in
      for _ = 1 to 25 do
        (match Stats.Rng.int rng 5 with
        | 0 -> ignore (Routing.Table.in_tree table (Stats.Rng.int rng n))
        | 1 ->
            let l = random_link () in
            if l.G.up then Routing.Table.set_link_up table l.G.u l.G.v false
        | 2 -> (
            match Topo_check.down_links g with
            | [] -> ()
            | (u, v) :: _ -> Routing.Table.set_link_up table u v true)
        | 3 ->
            let l = random_link () in
            G.set_cost g l.G.u l.G.v
              (G.cost g l.G.u l.G.v + 1 + Stats.Rng.int rng 5)
        | _ ->
            let l = random_link () in
            G.set_cost g l.G.u l.G.v (1 + Stats.Rng.int rng 10));
        if Stats.Rng.int rng 3 = 0 then reconverge_and_check ()
      done;
      reconverge_and_check ();
      !ok)

let prop_link_state_cache_consistent =
  QCheck.Test.make ~name:"LSDB SPF cache consistent across refloods"
    ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let n = 10 in
      let g = random_graph seed n in
      let engine, ls = converge_ls g in
      let rng = Stats.Rng.create (seed + 2) in
      let ok = ref true in
      for _ = 1 to 3 do
        (* Warm every router's memo, then invalidate it by changing a
           cost and reflooding: stale cached SPF answers would split
           the routers from the centralized table. *)
        for r = 0 to n - 1 do
          for d = 0 to n - 1 do
            ignore (Routing_oracles.Link_state.next_hop ls r ~dest:d)
          done
        done;
        let links = G.links g in
        let l = List.nth links (Stats.Rng.int rng (List.length links)) in
        G.set_cost g l.G.u l.G.v (1 + Stats.Rng.int rng 10);
        Routing_oracles.Link_state.reoriginate ls l.G.u;
        Eventsim.Engine.run engine;
        if
          not
            (Routing_oracles.Link_state.agrees_with_table ls (Routing.Table.compute g))
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "routing"
    [
      ( "dijkstra",
        [
          Alcotest.test_case "trivial" `Quick test_dijkstra_trivial;
          Alcotest.test_case "asymmetric paths" `Quick test_dijkstra_asymmetric_paths;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "tie break" `Quick test_dijkstra_tie_break_smallest_id;
          Alcotest.test_case "zero-cost link" `Quick test_dijkstra_zero_cost_link;
          Alcotest.test_case "int32 distance bound" `Quick test_dijkstra_int32_bound;
          Alcotest.test_case "a cached in-tree costs at most one word per node"
            `Quick test_tree_one_word_per_node;
          Alcotest.test_case "matches bellman-ford" `Quick test_dijkstra_matches_bellman_ford;
          Alcotest.test_case "table matches floyd-warshall" `Quick
            test_table_matches_floyd_warshall;
        ] );
      ( "forwarding",
        [
          Alcotest.test_case "hop-by-hop consistency" `Quick test_hop_by_hop_follows_path;
          Alcotest.test_case "path cost = distance" `Quick test_path_cost_equals_distance;
        ] );
      ( "path",
        [
          Alcotest.test_case "links" `Quick test_path_links;
          Alcotest.test_case "directional delay" `Quick test_path_delay_directional;
          Alcotest.test_case "validity" `Quick test_path_valid;
          Alcotest.test_case "hops" `Quick test_path_hops;
        ] );
      ( "bellman-ford",
        [ Alcotest.test_case "iteration bound" `Quick test_bellman_ford_iterations_bounded ] );
      ( "link-state",
        [
          Alcotest.test_case "converges" `Quick test_link_state_converges;
          Alcotest.test_case "agrees with centralized" `Quick
            test_link_state_agrees_with_centralized;
          Alcotest.test_case "host destinations" `Quick test_link_state_host_destinations;
          Alcotest.test_case "reconvergence" `Quick test_link_state_reconvergence;
          Alcotest.test_case "distances" `Quick test_link_state_distance_matches;
        ] );
      ( "asymmetry",
        [
          Alcotest.test_case "symmetric graph" `Quick test_asymmetry_symmetric_graph;
          Alcotest.test_case "random costs" `Quick test_asymmetry_random_costs;
          Alcotest.test_case "diamond pair" `Quick test_pair_asymmetric_diamond;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_triangle_inequality;
            prop_path_endpoints;
            prop_lazy_table_matches_fresh;
            prop_link_state_cache_consistent;
            prop_next_hop_smallest_tied_neighbour;
            prop_kernel_tracks_mutations;
            prop_scratch_reuse;
            prop_bucket_queue_matches_reference;
          ] );
    ]
