(* Every node in these micro-topologies is a Graph router (the
   paper's figures give S and the receivers several links, which our
   host invariant forbids), so protocol builders are called with
   router endpoints — they accept any node id. *)

module Detour = struct
  (* Ids: S=0, R1=1, R2=2, R3=3, R4=4, r1=5, r2=6, r3=7. *)
  let source = 0
  let r1 = 5
  let r2 = 6

  let graph () =
    Topology.Graph.make
      ~kinds:(Array.make 8 Topology.Graph.Router)
      ~links:
        [
          (0, 1, 1, 1) (* S-R1 *);
          (1, 2, 1, 1) (* R1-R2 *);
          (1, 3, 1, 1) (* R1-R3 *);
          (2, 5, 5, 1) (* R2-r1: expensive forward, cheap reverse *);
          (3, 5, 1, 5) (* R3-r1: cheap forward, expensive reverse *);
          (3, 6, 1, 1) (* R3-r2 *);
          (0, 4, 1, 1) (* S-R4 *);
          (4, 6, 1, 5) (* R4-r2: cheap forward, expensive reverse *);
          (3, 7, 1, 1) (* R3-r3 *);
        ]

  let table () = Routing.Table.compute (graph ())

  let reunite () =
    let t = Reunite.Analytic.create (table ()) ~source in
    Reunite.Analytic.join t r1;
    Reunite.Analytic.join t r2;
    t

  let reunite_r2_path () = Reunite.Analytic.data_path (reunite ()) r2

  let hbh_r2_path () = Hbh.Analytic.data_path (table ()) ~source r2

  let delay_gap () =
    let tbl = table () in
    let dist_re = Reunite.Analytic.distribution (reunite ()) in
    let dist_hbh = Hbh.Analytic.build tbl ~source ~receivers:[ r1; r2 ] in
    match
      (Mcast.Distribution.delay dist_re r2, Mcast.Distribution.delay dist_hbh r2)
    with
    | Some a, Some b -> a -. b
    | _ -> nan
end

module Duplication = struct
  (* Ids: S=0, R1=1, R2=2, R3=3, R4=4, R5=5, R6=6, r1=7, r2=8. *)
  let source = 0
  let r1 = 7
  let r2 = 8
  let shared_link = (1, 6) (* R1 -> R6 *)

  let graph () =
    Topology.Graph.make
      ~kinds:(Array.make 9 Topology.Graph.Router)
      ~links:
        [
          (0, 1, 1, 1) (* S-R1 *);
          (1, 2, 10, 1) (* R1-R2: reverse-only corridor *);
          (2, 4, 1, 1) (* R2-R4 *);
          (4, 7, 1, 1) (* R4-r1 *);
          (1, 6, 1, 1) (* R1-R6 *);
          (6, 4, 1, 10) (* R6-R4: forward-only corridor *);
          (6, 5, 1, 3) (* R6-R5 *);
          (5, 8, 1, 1) (* R5-r2 *);
          (1, 3, 10, 1) (* R1-R3: reverse-only corridor *);
          (3, 5, 1, 1) (* R3-R5 *);
        ]

  let table () = Routing.Table.compute (graph ())

  let reunite_dist () =
    Reunite.Analytic.build (table ()) ~source ~receivers:[ r1; r2 ]

  let hbh_dist () = Hbh.Analytic.build (table ()) ~source ~receivers:[ r1; r2 ]

  let reunite_copies_on_shared_link () =
    let u, v = shared_link in
    Mcast.Distribution.copies (reunite_dist ()) u v

  let hbh_copies_on_shared_link () =
    let u, v = shared_link in
    Mcast.Distribution.copies (hbh_dist ()) u v

  let reunite_cost () = Mcast.Distribution.cost (reunite_dist ())
  let hbh_cost () = Mcast.Distribution.cost (hbh_dist ())
end
