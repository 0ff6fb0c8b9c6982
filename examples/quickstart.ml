(* Quickstart: build a topology, run the event-driven HBH protocol on
   it through the protocol registry ([Verif.Sut]), send a data packet
   and inspect the resulting distribution tree.

     dune exec examples/quickstart.exe
*)

let () =
  (* 1. A small network: 8 routers in a random connected graph, one
     potential receiver host behind each, with the paper's asymmetric
     [1,10] link costs. *)
  let rng = Stats.Rng.create 2026 in
  let graph = Topology.Generators.random_connected rng ~n:8 ~avg_degree:3.0 in
  Topology.Graph.randomize_costs graph rng ~lo:1 ~hi:10;
  Format.printf "Network: %a@." Topology.Graph.pp graph;

  (* 2. A converged unicast forwarding plane (per-destination
     shortest-path in-trees over the directed costs). *)
  let table = Routing.Table.compute graph in
  let asym = Routing.Asymmetry.measure table in
  Format.printf "Route asymmetry: %.0f%% of router pairs@.@."
    (100.0 *. asym.asymmetric_fraction);

  (* 3. An HBH channel: the first host is the source, three others
     subscribe. *)
  let hosts = Topology.Graph.hosts graph in
  let source, receivers =
    match hosts with
    | s :: r1 :: r2 :: r3 :: _ -> (s, [ r1; r2; r3 ])
    | _ -> failwith "topology too small"
  in
  let sut = Verif.Sut.make Verif.Sut.Hbh table ~source in
  Format.printf "Channel: source host %d, receivers %a@." source
    Format.(pp_print_list ~pp_sep:(fun p () -> pp_print_string p ", ") pp_print_int)
    receivers;

  (* 4. Let the join/tree/fusion machinery converge, then measure one
     data packet. *)
  List.iter sut.subscribe receivers;
  sut.converge ();
  let dist = Live.probe sut in
  Format.printf "@.Measured distribution: %a@." Mcast.Distribution.pp dist;
  List.iter
    (fun ((u, v), copies) ->
      Format.printf "  link %2d -> %-2d carries %d cop%s@." u v copies
        (if copies = 1 then "y" else "ies"))
    (Mcast.Distribution.link_loads dist);
  List.iter
    (fun r ->
      Format.printf "  receiver %d delay %.1f (shortest possible %.1f)@." r
        (Option.value ~default:nan (Mcast.Distribution.delay dist r))
        (Routing.Path.delay graph (Routing.Table.path table source r)))
    receivers;

  (* 5. The protocol converges to the analytically predicted tree. *)
  let ideal = Hbh.Analytic.build table ~source ~receivers in
  Format.printf "@.Matches the ideal shortest-path tree: %b@."
    (Mcast.Distribution.equal_shape dist ideal);
  Format.printf "The tree forks at: %a@."
    Format.(pp_print_list ~pp_sep:(fun p () -> pp_print_string p ", ") pp_print_int)
    (Live.forks dist);
  Format.printf "Control overhead so far: %d message-hops@." (sut.control_hops ())
