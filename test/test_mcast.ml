(* Tests for multicast common types: class-D addresses, channels,
   distributions and metrics. *)

(* Whether [of_int32] accepts the value as a class-D address. *)
let is_class_d v =
  match Mcast.Class_d.of_int32 v with _ -> true | exception Invalid_argument _ -> false

let test_class_d_validation () =
  Alcotest.(check bool) "224.0.0.0 ok" true (is_class_d 0xE0000000l);
  Alcotest.(check bool) "239.255.255.255 ok" true (is_class_d 0xEFFFFFFFl);
  Alcotest.(check bool) "223.x rejected" false (is_class_d 0xDFFFFFFFl);
  Alcotest.(check bool) "240.x rejected" false (is_class_d 0xF0000000l);
  Alcotest.(check bool) "of_int32 raises" true
    (try
       ignore (Mcast.Class_d.of_int32 0x0A000001l);
       false
     with Invalid_argument _ -> true)

let test_class_d_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "roundtrip" s
        (Mcast.Class_d.to_string (Mcast.Class_d.of_string s)))
    [ "224.0.0.1"; "232.1.2.3"; "239.255.255.255" ]

let test_class_d_bad_strings () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("reject " ^ s) true
        (try
           ignore (Mcast.Class_d.of_string s);
           false
         with Invalid_argument _ -> true))
    [ "10.0.0.1"; "224.0.0"; "224.0.0.256"; "not-an-ip"; "224.0.0.1.2" ]

let test_class_d_allocator () =
  let a = Mcast.Class_d.allocator () in
  let g1 = Mcast.Class_d.allocate a in
  let g2 = Mcast.Class_d.allocate a in
  Alcotest.(check bool) "distinct" false
    (Mcast.Class_d.to_int32 g1 = Mcast.Class_d.to_int32 g2);
  Alcotest.(check bool) "ssm range" true
    (Int32.logand (Mcast.Class_d.to_int32 g1) 0xFF000000l = 0xE8000000l);
  Alcotest.(check string) "first is 232.0.0.1" "232.0.0.1" (Mcast.Class_d.to_string g1)

let test_channel_identity () =
  let c1 = Mcast.Channel.fresh ~source:5 in
  let c2 = Mcast.Channel.fresh ~source:5 in
  Alcotest.(check bool) "same source, distinct groups" false
    (Mcast.Channel.key c1 = Mcast.Channel.key c2);
  Alcotest.(check bool) "equal to itself" true (c1 = c1);
  Alcotest.(check int) "source kept" 5 (Mcast.Channel.source c1)

(* ---- Distribution ------------------------------------------------------ *)

let test_distribution_cost () =
  let d = Mcast.Distribution.create ~source:0 in
  Mcast.Distribution.add_copy d 0 1;
  Mcast.Distribution.add_copy d 0 1;
  Mcast.Distribution.add_copy d 1 2;
  Alcotest.(check int) "cost counts copies" 3 (Mcast.Distribution.cost d);
  Alcotest.(check int) "links used" 2 (Mcast.Distribution.links_used d);
  Alcotest.(check int) "duplicated links" 1 (Mcast.Distribution.duplicated_links d);
  Alcotest.(check int) "max stress" 2 (Mcast.Distribution.max_stress d);
  Alcotest.(check int) "copies on 0->1" 2 (Mcast.Distribution.copies d 0 1);
  Alcotest.(check int) "direction matters" 0 (Mcast.Distribution.copies d 1 0)

let test_distribution_delivery () =
  let d = Mcast.Distribution.create ~source:0 in
  Mcast.Distribution.deliver d ~receiver:7 ~delay:4.0;
  Mcast.Distribution.deliver d ~receiver:9 ~delay:6.0;
  Alcotest.(check (list int)) "receivers" [ 7; 9 ] (Mcast.Distribution.receivers d);
  Alcotest.(check (float 1e-9)) "avg" 5.0 (Mcast.Distribution.avg_delay d);
  Alcotest.(check (float 1e-9)) "max" 6.0 (Mcast.Distribution.max_delay d)

let test_distribution_duplicate_delivery () =
  let d = Mcast.Distribution.create ~source:0 in
  Mcast.Distribution.deliver d ~receiver:7 ~delay:4.0;
  Mcast.Distribution.deliver d ~receiver:7 ~delay:2.0;
  Alcotest.(check int) "dup counted" 1 (Mcast.Distribution.duplicate_deliveries d);
  Alcotest.(check (option (float 0.0))) "earliest wins" (Some 2.0)
    (Mcast.Distribution.delay d 7)

(* The one reader of the network's data accounting (the session probe
   and the churn probe): loads become per-link copies, deliveries go
   through [deliver]. *)
let test_distribution_of_accounting () =
  let of_accounting ~source =
    Mcast.Distribution.of_accounting ~source
      [ ((0, 1), 2); ((1, 2), 1); ((2, 1), 1) ]
      [ (7, 5.0); (9, 6.0); (7, 3.0); (7, 8.0) ]
  in
  let d = of_accounting ~source:3 in
  Alcotest.(check bool) "source" true
    (Mcast.Distribution.equal_shape d (of_accounting ~source:3)
    && not (Mcast.Distribution.equal_shape d (of_accounting ~source:4)));
  Alcotest.(check int) "copies on 0->1" 2 (Mcast.Distribution.copies d 0 1);
  Alcotest.(check int) "copies on 1->2" 1 (Mcast.Distribution.copies d 1 2);
  Alcotest.(check int) "copies on 2->1" 1 (Mcast.Distribution.copies d 2 1);
  Alcotest.(check int) "copies on 1->0" 0 (Mcast.Distribution.copies d 1 0);
  Alcotest.(check int) "cost" 4 (Mcast.Distribution.cost d);
  Alcotest.(check (list int)) "receivers" [ 7; 9 ] (Mcast.Distribution.receivers d);
  Alcotest.(check (option (float 0.0))) "earliest delay wins" (Some 3.0)
    (Mcast.Distribution.delay d 7);
  Alcotest.(check int) "duplicates counted" 2
    (Mcast.Distribution.duplicate_deliveries d);
  let empty = Mcast.Distribution.of_accounting ~source:0 [] [] in
  Alcotest.(check int) "empty cost" 0 (Mcast.Distribution.cost empty);
  Alcotest.(check (list int)) "no receivers" [] (Mcast.Distribution.receivers empty)

let test_distribution_add_path () =
  let g =
    Topology.Graph.make
      ~kinds:(Array.make 3 Topology.Graph.Router)
      ~links:[ (0, 1, 2, 9); (1, 2, 3, 9) ]
  in
  let d = Mcast.Distribution.create ~source:0 in
  let delay = Mcast.Distribution.add_path d g [ 0; 1; 2 ] in
  Alcotest.(check (float 0.0)) "path delay" 5.0 delay;
  Alcotest.(check int) "cost" 2 (Mcast.Distribution.cost d)

let test_distribution_equal_shape () =
  let mk () =
    let d = Mcast.Distribution.create ~source:0 in
    Mcast.Distribution.add_copy d 0 1;
    Mcast.Distribution.deliver d ~receiver:3 ~delay:1.0;
    d
  in
  Alcotest.(check bool) "equal" true
    (Mcast.Distribution.equal_shape (mk ()) (mk ()));
  let d2 = mk () in
  Mcast.Distribution.add_copy d2 0 1;
  Alcotest.(check bool) "copy count differs" false
    (Mcast.Distribution.equal_shape (mk ()) d2)

let test_distribution_metrics () =
  let d = Mcast.Distribution.create ~source:0 in
  Mcast.Distribution.add_copy d 0 1;
  Mcast.Distribution.add_copy d 1 2;
  Mcast.Distribution.deliver d ~receiver:2 ~delay:5.0;
  Alcotest.(check int) "cost" 2 (Mcast.Distribution.cost d);
  Alcotest.(check int) "receivers" 1
    (List.length (Mcast.Distribution.receivers d));
  Alcotest.(check (float 0.0)) "avg delay" 5.0 (Mcast.Distribution.avg_delay d)

(* ---- Properties --------------------------------------------------------- *)

let prop_distribution_cost_is_sum =
  QCheck.Test.make ~name:"cost equals sum of per-link copies" ~count:100
    QCheck.(list_of_size Gen.(0 -- 50) (pair (int_range 0 9) (int_range 0 9)))
    (fun links ->
      let d = Mcast.Distribution.create ~source:0 in
      List.iter (fun (u, v) -> if u <> v then Mcast.Distribution.add_copy d u v) links;
      let sum =
        List.fold_left
          (fun acc ((u, v), _) -> acc + Mcast.Distribution.copies d u v)
          0
          (Mcast.Distribution.link_loads d)
      in
      sum = Mcast.Distribution.cost d)

let () =
  Alcotest.run "mcast"
    [
      ( "class_d",
        [
          Alcotest.test_case "validation" `Quick test_class_d_validation;
          Alcotest.test_case "string roundtrip" `Quick test_class_d_string_roundtrip;
          Alcotest.test_case "bad strings" `Quick test_class_d_bad_strings;
          Alcotest.test_case "allocator" `Quick test_class_d_allocator;
        ] );
      ( "channel",
        [
          Alcotest.test_case "identity" `Quick test_channel_identity;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "cost accounting" `Quick test_distribution_cost;
          Alcotest.test_case "delivery" `Quick test_distribution_delivery;
          Alcotest.test_case "duplicate delivery" `Quick test_distribution_duplicate_delivery;
          Alcotest.test_case "of_accounting" `Quick test_distribution_of_accounting;
          Alcotest.test_case "add_path" `Quick test_distribution_add_path;
          Alcotest.test_case "equal_shape" `Quick test_distribution_equal_shape;
          Alcotest.test_case "metrics" `Quick test_distribution_metrics;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_distribution_cost_is_sum ] );
    ]
