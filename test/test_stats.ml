(* Tests for the stats library: RNG determinism and distribution
   sanity, Welford summaries, series bookkeeping and rendering. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---- Rng -------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Stats.Rng.create 1234 and b = Stats.Rng.create 1234 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Stats.Rng.float a 1.0) (Stats.Rng.float b 1.0)
  done

let test_rng_seed_sensitivity () =
  let a = Stats.Rng.create 1 and b = Stats.Rng.create 2 in
  let va = List.init 8 (fun _ -> Stats.Rng.float a 1.0) in
  let vb = List.init 8 (fun _ -> Stats.Rng.float b 1.0) in
  Alcotest.(check bool) "different seeds differ" true (va <> vb)

let test_rng_copy () =
  let a = Stats.Rng.create 7 in
  ignore (Stats.Rng.float a 1.0);
  let b = Stats.Rng.copy a in
  Alcotest.(check (float 0.0)) "copy continues identically" (Stats.Rng.float a 1.0)
    (Stats.Rng.float b 1.0)

let test_rng_split_independent () =
  let a = Stats.Rng.create 7 in
  let child = Stats.Rng.split a in
  let va = List.init 8 (fun _ -> Stats.Rng.float a 1.0) in
  let vc = List.init 8 (fun _ -> Stats.Rng.float child 1.0) in
  Alcotest.(check bool) "split streams differ" true (va <> vc)

let test_rng_int_bounds () =
  let rng = Stats.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Stats.Rng.int rng 10 in
    Alcotest.(check bool) "0 <= v < 10" true (v >= 0 && v < 10)
  done

let test_rng_int_invalid () =
  let rng = Stats.Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Stats.Rng.int rng 0))

let test_rng_int_in_range () =
  let rng = Stats.Rng.create 5 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    let v = Stats.Rng.int_in rng 1 10 in
    Alcotest.(check bool) "1 <= v <= 10" true (v >= 1 && v <= 10);
    seen.(v - 1) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_uniformity () =
  (* Chi-square-ish sanity: 10 buckets, 10k draws, each within 3x of
     the expected 1000. *)
  let rng = Stats.Rng.create 11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Stats.Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "bucket roughly uniform" true (c > 800 && c < 1200))
    buckets

let test_rng_float_bounds () =
  let rng = Stats.Rng.create 13 in
  for _ = 1 to 1000 do
    let v = Stats.Rng.float rng 2.5 in
    Alcotest.(check bool) "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_mean () =
  let rng = Stats.Rng.create 17 in
  let s = Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Stats.Summary.add s (Stats.Rng.exponential rng 4.0)
  done;
  let m = Stats.Summary.mean s in
  Alcotest.(check bool) "mean near 4" true (m > 3.8 && m < 4.2)

let test_rng_sample_distinct () =
  let rng = Stats.Rng.create 19 in
  for _ = 1 to 100 do
    let s = Stats.Rng.sample rng 5 10 in
    Alcotest.(check int) "5 values" 5 (List.length s);
    Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter
      (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 10))
      s
  done

let test_rng_sample_all () =
  let rng = Stats.Rng.create 23 in
  let s = List.sort compare (Stats.Rng.sample rng 6 6) in
  Alcotest.(check (list int)) "permutation of 0..5" [ 0; 1; 2; 3; 4; 5 ] s

let test_rng_sample_invalid () =
  let rng = Stats.Rng.create 23 in
  Alcotest.check_raises "k > n" (Invalid_argument "Rng.sample: need 0 <= k <= n")
    (fun () -> ignore (Stats.Rng.sample rng 7 6))

let test_rng_shuffle_permutes () =
  let rng = Stats.Rng.create 29 in
  let a = Array.init 20 Fun.id in
  Stats.Rng.shuffle rng a;
  Alcotest.(check (list int)) "same multiset" (List.init 20 Fun.id)
    (List.sort compare (Array.to_list a))

(* Pinned draws: these exact values must survive refactors of pick
   and sample — simulation results are reproduced from seeds alone. *)
let test_rng_pick_pinned () =
  let t = Stats.Rng.create 7 in
  Alcotest.(check (list int))
    "seeded picks stable" [ 30; 50; 10; 30; 50; 10 ]
    (List.init 6 (fun _ -> Stats.Rng.pick t [ 10; 20; 30; 40; 50 ]));
  (* A singleton pick still consumes exactly one draw, so the stream
     position afterwards is part of the contract. *)
  let t = Stats.Rng.create 7 in
  Alcotest.(check int) "singleton" 99 (Stats.Rng.pick t [ 99 ]);
  Alcotest.(check int) "stream position after singleton" 14
    (Stats.Rng.int t 100)

let test_rng_sample_pinned () =
  Alcotest.(check (list int))
    "dense path stable" [ 7; 3; 1; 0; 4 ]
    (Stats.Rng.sample (Stats.Rng.create 11) 5 9);
  Alcotest.(check (list int))
    "sparse path stable"
    [ 4710; 2159; 3573; 4197; 2165; 4529; 3597; 3198 ]
    (Stats.Rng.sample (Stats.Rng.create 11) 8 5000)

(* The dense partial Fisher-Yates, replicated verbatim: the sparse
   (hash-map) branch sample takes for k << n must be draw-for-draw and
   element-for-element identical to it. *)
let dense_sample seed k n =
  let t = Stats.Rng.create seed in
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + Stats.Rng.int t (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 k)

let test_rng_sample_sparse_matches_dense () =
  List.iter
    (fun (seed, k, n) ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d k=%d n=%d" seed k n)
        (dense_sample seed k n)
        (Stats.Rng.sample (Stats.Rng.create seed) k n))
    [ (11, 8, 5000); (0, 1, 2000); (99, 255, 4096); (5, 0, 1500); (3, 64, 100_000) ]

let test_rng_pick () =
  let rng = Stats.Rng.create 31 in
  for _ = 1 to 50 do
    let v = Stats.Rng.pick rng [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Stats.Rng.pick rng []))

(* ---- Summary ---------------------------------------------------------- *)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Summary.mean s))

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Stats.Summary.mean s)

let test_summary_single () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 3.5;
  check_float "mean" 3.5 (Stats.Summary.mean s)

(* ---- Series ----------------------------------------------------------- *)

let test_series_points_sorted () =
  let s = Stats.Series.create "x" in
  Stats.Series.observe s ~x:10 1.0;
  Stats.Series.observe s ~x:2 2.0;
  Stats.Series.observe s ~x:5 3.0;
  Alcotest.(check (list int)) "sorted xs" [ 2; 5; 10 ]
    (List.map fst (Stats.Series.points s))

let test_series_mean_accumulates () =
  let s = Stats.Series.create "x" in
  Stats.Series.observe s ~x:1 2.0;
  Stats.Series.observe s ~x:1 4.0;
  Alcotest.(check (list (pair int (float 1e-9)))) "mean at x" [ (1, 3.0) ]
    (Stats.Series.points s)

let test_series_ratio () =
  let a = Stats.Series.create "A" and b = Stats.Series.create "B" in
  List.iter
    (fun x ->
      Stats.Series.observe a ~x 10.0;
      Stats.Series.observe b ~x 5.0)
    [ 1; 2; 3 ];
  let g = Stats.Series.group [ a; b ] in
  List.iter
    (fun (_, r) -> check_float "ratio 2" 2.0 r)
    (Stats.Series.ratio g ~num:"A" ~den:"B")

let test_series_ratio_missing () =
  let a = Stats.Series.create "A" in
  let g = Stats.Series.group [ a ] in
  Alcotest.check_raises "unknown series" Not_found (fun () ->
      ignore (Stats.Series.ratio g ~num:"A" ~den:"Z"))

let test_series_csv () =
  let a = Stats.Series.create "A" in
  Stats.Series.observe a ~x:1 2.0;
  let g = Stats.Series.group ~x_label:"n" [ a ] in
  let csv = Stats.Series.to_csv g in
  Alcotest.(check bool) "header" true
    (String.length csv > 4 && String.sub csv 0 4 = "n,A\n")

let test_series_render_no_crash () =
  let a = Stats.Series.create "A" and b = Stats.Series.create "B" in
  Stats.Series.observe a ~x:1 1.0;
  Stats.Series.observe b ~x:2 2.0;
  let g = Stats.Series.group ~title:"t" ~x_label:"x" ~y_label:"y" [ a; b ] in
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Stats.Series.render ppf g;
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "rendered something" true (Buffer.length buf > 0)

(* ---- Table ------------------------------------------------------------ *)

let test_table_alignment () =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Stats.Table.render ppf ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ];
  Format.pp_print_flush ppf ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  Alcotest.(check bool) "4 lines (hdr, rule, 2 rows)" true
    (List.length (List.filter (fun l -> l <> "") lines) = 4)

(* ---- Properties ------------------------------------------------------- *)

let prop_summary_mean_in_range =
  QCheck.Test.make ~name:"summary mean within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let lo = List.fold_left Float.min infinity xs
      and hi = List.fold_left Float.max neg_infinity xs in
      Stats.Summary.mean s >= lo -. 1e-9 && Stats.Summary.mean s <= hi +. 1e-9)

let prop_rng_sample_distinct =
  QCheck.Test.make ~name:"sample yields distinct in-range values" ~count:200
    QCheck.(pair (int_range 0 20) (int_range 1 100))
    (fun (k, extra) ->
      let n = k + (extra mod 30) in
      let rng = Stats.Rng.create (k + (n * 1000)) in
      let s = Stats.Rng.sample rng k n in
      List.length s = k
      && List.length (List.sort_uniq compare s) = k
      && List.for_all (fun v -> v >= 0 && v < n) s)

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "sample all" `Quick test_rng_sample_all;
          Alcotest.test_case "sample invalid" `Quick test_rng_sample_invalid;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "pick pinned" `Quick test_rng_pick_pinned;
          Alcotest.test_case "sample pinned" `Quick test_rng_sample_pinned;
          Alcotest.test_case "sample sparse = dense" `Quick
            test_rng_sample_sparse_matches_dense;
        ] );
      ( "summary",
        [
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "basic moments" `Quick test_summary_basic;
          Alcotest.test_case "single value" `Quick test_summary_single;
        ] );
      ( "series",
        [
          Alcotest.test_case "points sorted" `Quick test_series_points_sorted;
          Alcotest.test_case "mean accumulates" `Quick test_series_mean_accumulates;
          Alcotest.test_case "ratio" `Quick test_series_ratio;
          Alcotest.test_case "ratio missing" `Quick test_series_ratio_missing;
          Alcotest.test_case "csv header" `Quick test_series_csv;
          Alcotest.test_case "render" `Quick test_series_render_no_crash;
        ] );
      ( "table",
        [ Alcotest.test_case "alignment" `Quick test_table_alignment ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_summary_mean_in_range;
            prop_rng_sample_distinct;
          ] );
    ]
