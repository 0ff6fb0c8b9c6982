(* Tests for the telemetry subsystem: ring-buffer eviction, metric
   instrument semantics, JSON round-trips, the lazy-formatting trace,
   and an end-to-end assertion that an ISP-scenario HBH run reports
   into the default registry and trace. *)

(* ---- Ring buffer ------------------------------------------------------- *)

let test_ring_eviction () =
  let r = Obs.Ring.create ~capacity:3 in
  List.iter (Obs.Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "length capped" 3 (Obs.Ring.length r);
  Alcotest.(check (list int)) "oldest evicted first" [ 3; 4; 5 ]
    (Obs.Ring.last r max_int);
  Alcotest.(check (list int)) "last n, oldest-of-them first" [ 4; 5 ]
    (Obs.Ring.last r 2);
  Alcotest.(check (list int)) "last over-asks clamps" [ 3; 4; 5 ]
    (Obs.Ring.last r 10);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Obs.Ring.create ~capacity:0))

let test_ring_partial () =
  let r = Obs.Ring.create ~capacity:4 in
  Obs.Ring.push r "a";
  Obs.Ring.push r "b";
  Alcotest.(check (list string)) "unfilled keeps all" [ "a"; "b" ]
    (Obs.Ring.last r max_int)

(* Truncation is accounted, not silent: evictions are counted and the
   high-water mark proves (or disproves) that the bound ever bit. *)
let test_ring_truncation_accounting () =
  let r = Obs.Ring.create ~capacity:3 in
  Obs.Ring.push r 1;
  Obs.Ring.push r 2;
  Alcotest.(check int) "no drops while unfilled" 0 (Obs.Ring.dropped r);
  Alcotest.(check int) "high water tracks length" 2 (Obs.Ring.high_water r);
  List.iter (Obs.Ring.push r) [ 3; 4; 5 ];
  Alcotest.(check int) "two oldest evicted" 2 (Obs.Ring.dropped r);
  Alcotest.(check int) "high water pegged at capacity" 3 (Obs.Ring.high_water r);
  Alcotest.(check (list int)) "survivors unchanged" [ 3; 4; 5 ]
    (Obs.Ring.last r max_int)

(* ---- Metrics instruments ----------------------------------------------- *)

let test_counter_semantics () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "x.count" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Metrics.value c);
  (* Interning: same name returns the same instrument. *)
  let c' = Obs.Metrics.counter reg "x.count" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "interned by name" 43 (Obs.Metrics.value c);
  Obs.Metrics.reset reg;
  Alcotest.(check int) "reset zeroes, reference stays live" 0
    (Obs.Metrics.value c)

let test_gauge_semantics () =
  let reg = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge reg "x.level" in
  let value () = List.assoc "x.level" (Obs.Metrics.snapshot reg).Obs.Metrics.gauges in
  Alcotest.(check bool) "nan until set" true (Float.is_nan (value ()));
  Obs.Metrics.set g 2.5;
  Obs.Metrics.set g 7.0;
  Alcotest.(check (float 0.0)) "last value wins" 7.0 (value ())

(* Regression: a NaN observation used to land in the first bucket (it
   compares false against every bound) and poison sum/min/max for the
   histogram's remaining lifetime; later it was counted in [count],
   which still diluted the mean and shifted quantile ranks.  NaNs now
   live in their own tally, invisible to every moment. *)
let test_histogram_nan_quarantined () =
  let h = Obs.Histo.create ~buckets:[| 1.0; 10.0 |] () in
  Obs.Histo.observe h nan;
  Obs.Histo.observe h 0.5;
  Obs.Histo.observe h nan;
  let s = Obs.Histo.snapshot h in
  Alcotest.(check int) "finite observations counted" 1 s.Obs.Histo.count;
  Alcotest.(check int) "NaNs quarantined in their own tally" 2 s.Obs.Histo.nans;
  Alcotest.(check int) "overflow holds no NaNs" 0 s.Obs.Histo.overflow;
  Alcotest.(check (list (pair (float 0.0) int)))
    "finite sample in its bucket"
    [ (1.0, 1); (10.0, 0) ]
    s.Obs.Histo.buckets;
  Alcotest.(check (float 1e-9)) "sum unpoisoned" 0.5 s.Obs.Histo.sum;
  Alcotest.(check (float 0.0)) "min unpoisoned" 0.5 s.Obs.Histo.min;
  Alcotest.(check (float 0.0)) "max unpoisoned" 0.5 s.Obs.Histo.max;
  Alcotest.(check (float 1e-9)) "mean over finite samples only" 0.5
    (Obs.Histo.sum h /. float_of_int (Obs.Histo.count h));
  Alcotest.(check (float 0.0)) "p50 undiluted by NaNs" 0.5
    (Obs.Histo.quantile s 0.50)

let test_histogram_semantics () =
  let h = Obs.Histo.create ~buckets:[| 1.0; 10.0; 100.0 |] () in
  List.iter (Obs.Histo.observe h) [ 0.5; 5.0; 5.0; 50.0; 5000.0 ];
  Alcotest.(check int) "count" 5 (Obs.Histo.count h);
  Alcotest.(check (float 1e-9)) "sum" 5060.5 (Obs.Histo.sum h);
  let s = Obs.Histo.snapshot h in
  Alcotest.(check (list (pair (float 0.0) int)))
    "bucket counts"
    [ (1.0, 1); (10.0, 2); (100.0, 1) ]
    s.Obs.Histo.buckets;
  Alcotest.(check int) "overflow" 1 s.Obs.Histo.overflow;
  Alcotest.(check (float 0.0)) "min" 0.5 s.Obs.Histo.min;
  Alcotest.(check (float 0.0)) "max" 5000.0 s.Obs.Histo.max;
  Obs.Histo.reset h;
  Alcotest.(check int) "reset" 0 (Obs.Histo.count h)

(* A histogram's summary interpolates quantiles from its buckets:
   with 100 uniform samples over (0, 100] and bounds every 10, the
   estimates must land within one bucket width of the exact ranks. *)
let test_histogram_quantiles () =
  let h =
    Obs.Histo.create ~buckets:(Array.init 10 (fun i -> float_of_int ((i + 1) * 10))) ()
  in
  for i = 1 to 100 do
    Obs.Histo.observe h (float_of_int i)
  done;
  let s = Obs.Histo.snapshot h in
  let p50 = Obs.Histo.quantile s 0.50
  and p95 = Obs.Histo.quantile s 0.95
  and p99 = Obs.Histo.quantile s 0.99 in
  Alcotest.(check int) "count" 100 s.Obs.Histo.count;
  Alcotest.(check (float 10.0)) "p50 near 50" 50.0 p50;
  Alcotest.(check (float 10.0)) "p95 near 95" 95.0 p95;
  Alcotest.(check (float 10.0)) "p99 near 99" 99.0 p99;
  Alcotest.(check bool) "quantiles ordered" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "clamped to observed range" true (p99 <= s.Obs.Histo.max)

(* Degenerate histograms must yield well-defined quantiles — not NaN
   or interpolation garbage: empty -> 0, a single observation (or any
   min = max collapse) -> that value. *)
let test_histogram_quantile_edges () =
  let empty = Obs.Histo.snapshot (Obs.Histo.create ~buckets:[| 1.0; 10.0 |] ()) in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty p%.0f is 0" (q *. 100.))
        0.0
        (Obs.Histo.quantile empty q))
    [ 0.5; 0.95; 0.99 ];
  let h = Obs.Histo.create ~buckets:[| 1.0; 10.0 |] () in
  Obs.Histo.observe h 7.25;
  let s = Obs.Histo.snapshot h in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "single observation p%.0f is the value" (q *. 100.))
        7.25
        (Obs.Histo.quantile s q))
    [ 0.5; 0.95; 0.99 ];
  Alcotest.(check bool) "NaN rank propagates NaN" true
    (Float.is_nan (Obs.Histo.quantile s nan))

let test_histogram_merge () =
  let bounds = [| 1.0; 10.0; 100.0 |] in
  let a = Obs.Histo.create ~buckets:bounds () in
  let b = Obs.Histo.create ~buckets:bounds () in
  List.iter (Obs.Histo.observe a) [ 0.5; 5.0; nan ];
  List.iter (Obs.Histo.observe b) [ 50.0; 5000.0 ];
  Obs.Histo.merge a b;
  let s = Obs.Histo.snapshot a in
  Alcotest.(check int) "counts sum (finite only)" 4 s.Obs.Histo.count;
  Alcotest.(check int) "nans sum" 1 s.Obs.Histo.nans;
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets sum bucket-wise"
    [ (1.0, 1); (10.0, 1); (100.0, 1) ]
    s.Obs.Histo.buckets;
  Alcotest.(check int) "overflow sums" 1 s.Obs.Histo.overflow;
  Alcotest.(check (float 1e-9)) "sum adds" 5055.5 s.Obs.Histo.sum;
  Alcotest.(check (float 0.0)) "min is the joint min" 0.5 s.Obs.Histo.min;
  Alcotest.(check (float 0.0)) "max is the joint max" 5000.0 s.Obs.Histo.max;
  Alcotest.(check bool) "post-merge quantile is finite" true
    (Float.is_finite (Obs.Histo.quantile s 0.95));
  (* Merging an empty histogram must not poison min/max with its NaN
     sentinels. *)
  let c = Obs.Histo.create ~buckets:bounds () in
  Obs.Histo.merge a c;
  let s = Obs.Histo.snapshot a in
  Alcotest.(check (float 0.0)) "empty merge keeps min" 0.5 s.Obs.Histo.min;
  Alcotest.(check (float 0.0)) "empty merge keeps max" 5000.0 s.Obs.Histo.max;
  (* And merging INTO a fresh histogram adopts the source's extrema. *)
  let d = Obs.Histo.create ~buckets:bounds () in
  Obs.Histo.merge d a;
  let s = Obs.Histo.snapshot d in
  Alcotest.(check (float 0.0)) "fresh dst adopts min" 0.5 s.Obs.Histo.min;
  Alcotest.(check (float 0.0)) "fresh dst adopts max" 5000.0 s.Obs.Histo.max;
  match Obs.Histo.merge a (Obs.Histo.create ~buckets:[| 2.0 |] ()) with
  | () -> Alcotest.fail "bucket-bounds mismatch must be rejected"
  | exception Invalid_argument _ -> ()

(* ---- Labeled series ----------------------------------------------------- *)

let test_labels_canonical () =
  (* Construction order never distinguishes two series. *)
  let reg = Obs.Metrics.create () in
  let ab = Obs.Labels.v [ ("a", "1"); ("b", "2") ] in
  let ba = Obs.Labels.v [ ("b", "2"); ("a", "1") ] in
  Alcotest.(check bool) "order-insensitive equality" true
    (Obs.Labels.bindings ab = Obs.Labels.bindings ba);
  Alcotest.(check string) "one registry key"
    (Obs.Labels.series_name "req" ab)
    (Obs.Labels.series_name "req" ba);
  let c1 = Obs.Metrics.counter_l reg "req" ab in
  let c2 = Obs.Metrics.counter_l reg "req" ba in
  Obs.Metrics.incr c1;
  Obs.Metrics.incr c2;
  Alcotest.(check int) "same series interned" 2 (Obs.Metrics.value c1);
  let other = Obs.Metrics.counter_l reg "req" (Obs.Labels.v [ ("a", "2"); ("b", "2") ]) in
  Alcotest.(check int) "different values split the series" 0
    (Obs.Metrics.value other);
  (* The encoded snapshot key decomposes back to (base, labels). *)
  (match Obs.Metrics.counter_series reg with
  | { Obs.Metrics.base; labels; value } :: _ ->
      Alcotest.(check string) "decompose base" "req" base;
      Alcotest.(check bool) "decompose labels" true
        (Obs.Labels.bindings ab = Obs.Labels.bindings labels);
      Alcotest.(check int) "decomposed series value" 2 value
  | [] -> Alcotest.fail "no counter series");
  let snap = Obs.Metrics.snapshot reg in
  Alcotest.(check (option int)) "snapshot carries the encoded key" (Some 2)
    (List.assoc_opt "req{a=\"1\",b=\"2\"}" snap.Obs.Metrics.counters)

let test_labels_validation () =
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Labels.make: duplicate label key \"a\"") (fun () ->
      ignore (Obs.Labels.make [ ("a", "1"); ("a", "2") ]));
  Alcotest.check_raises "invalid key"
    (Invalid_argument "Labels.make: invalid label key \"0bad\"") (fun () ->
      ignore (Obs.Labels.make [ ("0bad", "1") ]));
  Alcotest.(check string) "values escaped in render" "{k=\"x\\\"y\\\\z\"}"
    (Obs.Labels.series_name "" (Obs.Labels.v [ ("k", "x\"y\\z") ]));
  Alcotest.(check string) "empty set renders empty" ""
    (Obs.Labels.series_name "" Obs.Labels.empty)

(* ---- Timeline ----------------------------------------------------------- *)

(* Two identical probe schedules must produce byte-identical series
   and NDJSON — the reproducibility the seeded fault curves rely on. *)
let test_timeline_determinism () =
  let build () =
    let tl = Obs.Timeline.create ~interval:10.0 () in
    let x = ref 0 in
    Obs.Timeline.add_probe tl "x" (fun () -> float_of_int !x);
    Obs.Timeline.add_probe tl "xx" (fun () -> float_of_int (!x * !x));
    for i = 0 to 4 do
      x := i + 1;
      Obs.Timeline.sample tl ~now:(10.0 *. float_of_int i)
    done;
    tl
  in
  let a = build () and b = build () in
  let nd t = Obs.Timeline.to_ndjson ~tags:[ ("case", "t") ] t in
  Alcotest.(check string) "NDJSON bit-identical across runs" (nd a) (nd b);
  (* Rows oldest first, columns in registration order, each probe read
     at its sample time. *)
  (match String.split_on_char '\n' (nd a) with
  | first :: _ ->
      Alcotest.(check string) "first row" {|{"case":"t","t":0.0,"x":1.0,"xx":1.0}|}
        first
  | [] -> Alcotest.fail "no rows");
  (* Every NDJSON line is a self-contained JSON object with the tag. *)
  let lines = String.split_on_char '\n' (nd a) in
  let lines = List.filter (fun l -> l <> "") lines in
  Alcotest.(check int) "one line per row" 5 (List.length lines);
  List.iteri
    (fun i line ->
      match Json_read.of_string line with
      | Error e -> Alcotest.failf "row %d is not JSON: %s" i e
      | Ok j ->
          Alcotest.(check (option string)) "tag present" (Some "t")
            Json_read.(Option.bind (member "case" j) to_string_opt);
          Alcotest.(check (option (float 0.0))) "probe field"
            (Some (float_of_int ((i + 1) * (i + 1))))
            Json_read.(Option.bind (member "xx" j) to_float))
    lines

let test_timeline_registration_guards () =
  let tl = Obs.Timeline.create () in
  Obs.Timeline.add_probe tl "x" (fun () -> 0.0);
  Alcotest.check_raises "duplicate probe"
    (Invalid_argument "Timeline.add_probe: duplicate probe \"x\"") (fun () ->
      Obs.Timeline.add_probe tl "x" (fun () -> 1.0));
  Obs.Timeline.sample tl ~now:0.0;
  Alcotest.check_raises "no probes after sampling"
    (Invalid_argument "Timeline.add_probe: timeline already has samples")
    (fun () -> Obs.Timeline.add_probe tl "y" (fun () -> 1.0));
  Alcotest.check_raises "interval must be positive"
    (Invalid_argument "Timeline.create: interval must be positive") (fun () ->
      ignore (Obs.Timeline.create ~interval:0.0 ()))

(* ---- Spans -------------------------------------------------------------- *)

let test_span_balance () =
  let s = Obs.Span.create () in
  Obs.Span.start s "join" ~key:1 ~now:10.0;
  Obs.Span.start s "join" ~key:2 ~now:10.0;
  Obs.Span.start s "join" ~key:3 ~now:12.0;
  Alcotest.(check int) "three in flight" 3 (Obs.Span.open_count s);
  Alcotest.(check (option (float 1e-9))) "finish returns the duration"
    (Some 15.0)
    (Obs.Span.finish s "join" ~key:1 ~now:25.0);
  Alcotest.(check (option (float 0.0))) "closing is idempotent" None
    (Obs.Span.finish s "join" ~key:1 ~now:30.0);
  Alcotest.(check bool) "drop abandons an open span" true
    (Obs.Span.drop s "join" ~key:2);
  Alcotest.(check bool) "drop without an open span is a no-op" false
    (Obs.Span.drop s "join" ~key:2);
  (* A re-start abandons the first attempt and restarts the clock. *)
  Obs.Span.start s "join" ~key:3 ~now:20.0;
  Alcotest.(check (option (float 1e-9))) "restart superseded the clock"
    (Some 10.0)
    (Obs.Span.finish s "join" ~key:3 ~now:30.0);
  Obs.Span.start s "join" ~key:4 ~now:31.0;
  Obs.Span.start s "graft" ~key:4 ~now:31.0;
  Alcotest.(check int) "restore abandons all in flight" 2
    (Obs.Span.drop_all_open s);
  Alcotest.(check int) "completed" 2 (Obs.Span.stats s).Obs.Span.n;
  Alcotest.(check int) "open" 0 (Obs.Span.open_count s);
  (* Exact nearest-rank stats over the two completed durations. *)
  let st = Obs.Span.stats ~name:"join" s in
  Alcotest.(check int) "stats n" 2 st.Obs.Span.n;
  Alcotest.(check (float 1e-9)) "mean" 12.5 st.Obs.Span.mean;
  Alcotest.(check (float 0.0)) "p50 nearest-rank" 10.0 st.Obs.Span.p50;
  Alcotest.(check (float 0.0)) "p95 nearest-rank" 15.0 st.Obs.Span.p95;
  Alcotest.(check (float 0.0)) "max" 15.0 st.Obs.Span.max;
  Alcotest.(check int) "empty family reports n=0" 0
    (Obs.Span.stats ~name:"nope" s).Obs.Span.n

(* [stats_of] sorts before it sums, so a duration list read in
   receiver order (a recovery report) and the same durations in
   completion order (a span store) give the same bits, also where
   float addition is not associative (durations of mixed magnitudes). *)
let prop_span_stats_order_free =
  QCheck.Test.make ~count:300 ~name:"stats_of ignores the order of its durations"
    QCheck.(
      make
        ~print:Print.(pair (list float) int)
        Gen.(
          pair
            (list_size (0 -- 30)
               (map2 ( *. ) (float_bound_inclusive 1.0)
                  (oneofl [ 1e-9; 1.0; 1e9 ])))
            int))
    (fun (ds, seed) ->
      let rng = Random.State.make [| seed |] in
      let shuffled =
        List.map snd
          (List.sort compare
             (List.map (fun d -> (Random.State.bits rng, d)) ds))
      in
      compare (Obs.Span.stats_of ds) (Obs.Span.stats_of shuffled) = 0
      && compare (Obs.Span.stats_of ds) (Obs.Span.stats_of (List.rev ds)) = 0)

(* ---- OpenMetrics exporter ----------------------------------------------- *)

let test_openmetrics_exposition () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter reg "proto.msgs") 3;
  Obs.Metrics.add
    (Obs.Metrics.counter_l reg "proto.msgs" (Obs.Labels.v [ ("protocol", "hbh") ]))
    2;
  Obs.Metrics.set (Obs.Metrics.gauge reg "load") 0.5;
  ignore (Obs.Metrics.gauge reg "never.set");
  let h = Obs.Metrics.histogram reg ~buckets:[| 1.0; 10.0 |] "delay" in
  List.iter (Obs.Histo.observe h) [ 0.5; 5.0; 99.0 ];
  let out = Obs.Openmetrics.of_metrics reg in
  let lines = String.split_on_char '\n' out in
  let has l = List.mem l lines in
  List.iter
    (fun l -> Alcotest.(check bool) (Printf.sprintf "emits %S" l) true (has l))
    [
      "# TYPE proto_msgs counter";
      "proto_msgs_total 3";
      "proto_msgs_total{protocol=\"hbh\"} 2";
      "# TYPE load gauge";
      "load 0.5";
      "# TYPE delay histogram";
      "delay_bucket{le=\"1\"} 1";
      "delay_bucket{le=\"10\"} 2";
      "delay_bucket{le=\"+Inf\"} 3";
      "delay_sum 104.5";
      "delay_count 3";
      "# EOF";
    ];
  Alcotest.(check bool) "unset gauges are skipped" false
    (List.exists (fun l -> String.length l >= 9 && String.sub l 0 9 = "never_set") lines);
  Alcotest.(check bool) "EOF terminates the document" true
    (match List.rev lines with "" :: "# EOF" :: _ -> true | _ -> false)

(* ---- Per-run metric scoping --------------------------------------------- *)

(* The registry is scoped per experiment invocation: running the same
   seeded experiment twice must leave exactly the state one run
   leaves — nothing accumulates across runs. *)
let test_two_runs_equal_one_run () =
  let run () =
    ignore
      (Experiments.Faults.run_observed ~seed:42
         ~scenarios:[ Experiments.Faults.Crash ] ~protocols:[ Verif.Sut.Hbh ] ());
    Obs.Metrics.snapshot (Obs.Metrics.default ())
  in
  let once = run () in
  let twice = run () in
  Alcotest.(check (list (pair string int)))
    "counters identical" once.Obs.Metrics.counters twice.Obs.Metrics.counters;
  Alcotest.(check int) "histogram count identical"
    (List.length once.Obs.Metrics.histograms)
    (List.length twice.Obs.Metrics.histograms);
  List.iter2
    (fun (n1, (h1 : Obs.Histo.snapshot)) (n2, (h2 : Obs.Histo.snapshot)) ->
      Alcotest.(check string) "histogram name" n1 n2;
      Alcotest.(check int) (n1 ^ " count") h1.Obs.Histo.count h2.Obs.Histo.count;
      Alcotest.(check (float 0.0)) (n1 ^ " sum") h1.Obs.Histo.sum h2.Obs.Histo.sum)
    once.Obs.Metrics.histograms twice.Obs.Metrics.histograms

(* ---- JSON -------------------------------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "a \"quoted\"\n\tstring \\ with escapes");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 2.5);
        ("b", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 2 ]);
      ]
  in
  match Json_read.of_string (Obs.Json.to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' ->
      Alcotest.(check string) "print-parse-print stable"
        (Obs.Json.to_string j) (Obs.Json.to_string j');
      Alcotest.(check (option int)) "member access" (Some (-42))
        Json_read.(Option.bind (member "i" j') to_int)

let test_json_rejects_garbage () =
  let bad s =
    match Json_read.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  List.iter bad [ ""; "{"; "[1,]"; "tru"; "\"unterminated"; "{1: 2}"; "1 2" ]

let test_snapshot_json_roundtrip () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "proto.msgs" in
  Obs.Metrics.add c 17;
  Obs.Metrics.set (Obs.Metrics.gauge reg "load") 0.75;
  let h = Obs.Metrics.histogram reg ~buckets:[| 1.0; 10.0 |] "delay" in
  List.iter (Obs.Histo.observe h) [ 0.2; 3.0; 99.0 ];
  let snap = Obs.Metrics.snapshot reg in
  let json = Obs.Metrics.snapshot_to_json snap in
  match Json_read.of_string (Obs.Json.to_string json) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok j -> (
      match Json_read.snapshot_of_json j with
      | Error e -> Alcotest.failf "snapshot decode failed: %s" e
      | Ok snap' ->
          Alcotest.(check (list (pair string int)))
            "counters round-trip" snap.Obs.Metrics.counters
            snap'.Obs.Metrics.counters;
          Alcotest.(check (list (pair string (float 1e-9))))
            "gauges round-trip" snap.Obs.Metrics.gauges
            snap'.Obs.Metrics.gauges;
          let hist s =
            List.map
              (fun (n, (h : Obs.Histo.snapshot)) ->
                (n, (h.buckets, h.overflow, h.count)))
              s.Obs.Metrics.histograms
          in
          Alcotest.(
            check
              (list
                 (pair string
                    (triple (list (pair (float 0.0) int)) int int))))
            "histograms round-trip" (hist snap) (hist snap'))

(* ---- Trace ------------------------------------------------------------- *)

let test_notef_short_circuit () =
  let t = Obs.Trace.create ~enabled:false () in
  let rendered = ref false in
  let spy ppf = Format.fprintf ppf "%b" (rendered := true; !rendered) in
  Obs.Trace.notef t ~time:1.0 ~node:0 "spy: %t" spy;
  Alcotest.(check bool) "inactive trace never formats" false !rendered;
  Alcotest.(check int) "nothing recorded" 0 (Obs.Trace.length t);
  let t = Obs.Trace.create ~enabled:true () in
  Obs.Trace.notef t ~time:2.0 ~node:0 "spy: %t" spy;
  Alcotest.(check bool) "active trace formats" true !rendered;
  Alcotest.(check int) "note recorded" 1 (Obs.Trace.length t)

let test_sink_without_ring () =
  let t = Obs.Trace.create ~enabled:false () in
  Alcotest.(check bool) "disabled, no sink: inactive" false
    (Obs.Trace.active t);
  let seen = ref [] in
  Obs.Trace.on_event t (fun e -> seen := e :: !seen);
  Alcotest.(check bool) "sink makes it active" true (Obs.Trace.active t);
  Obs.Trace.event t ~time:3.0 ~node:7 Obs.Event.Member_join;
  Alcotest.(check int) "sink saw the event" 1 (List.length !seen);
  Alcotest.(check int) "ring stayed empty (not enabled)" 0
    (Obs.Trace.length t)

let test_ring_bound_and_order () =
  let t = Obs.Trace.create ~enabled:true ~capacity:2 () in
  for i = 1 to 3 do
    Obs.Trace.event t ~time:(float_of_int i) ~node:i Obs.Event.Member_join
  done;
  match Obs.Trace.last t max_int with
  | [ a; b ] ->
      Alcotest.(check (float 0.0)) "oldest surviving" 2.0 a.Obs.Event.time;
      Alcotest.(check (float 0.0)) "newest" 3.0 b.Obs.Event.time
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

(* ---- End to end: ISP-scenario HBH run reports into obs ------------------ *)

let count_kind trace pred =
  List.length (List.filter (fun (e : Obs.Event.t) -> pred e.kind) (Obs.Trace.last trace max_int))

let test_hbh_isp_run_reports () =
  Obs.Metrics.reset (Obs.Metrics.default ());
  let g = Topology.Isp.create () in
  let rng = Stats.Rng.create 7 in
  Workload.Scenario.randomize rng g;
  let table = Routing.Table.compute g in
  let trace = Obs.Trace.create ~enabled:true ~capacity:65536 () in
  let session = Hbh.Protocol.create ~trace table ~source:Topology.Isp.source in
  let receivers =
    List.filteri (fun i _ -> i mod 3 = 0) Topology.Isp.receiver_hosts
  in
  List.iter (Hbh.Protocol.subscribe session) receivers;
  Hbh.Protocol.converge session;
  let d = Hbh.Protocol.probe session in
  Alcotest.(check (list int)) "tree serves the receivers"
    (List.sort compare receivers)
    (Mcast.Distribution.receivers d);
  let joins = count_kind trace (function Obs.Event.Join _ -> true | _ -> false) in
  let trees = count_kind trace (function Obs.Event.Tree _ -> true | _ -> false) in
  Alcotest.(check bool) "join events recorded" true (joins > 0);
  Alcotest.(check bool) "tree events recorded" true (trees > 0);
  let snap = Obs.Metrics.snapshot (Obs.Metrics.default ()) in
  let counter name =
    match List.assoc_opt name snap.Obs.Metrics.counters with
    | Some n -> n
    | None -> Alcotest.failf "counter %s missing from snapshot" name
  in
  Alcotest.(check bool) "proto.hbh.join_msgs > 0" true (counter "proto.hbh.join_msgs" > 0);
  Alcotest.(check bool) "proto.hbh.tree_msgs > 0" true (counter "proto.hbh.tree_msgs" > 0);
  Alcotest.(check int) "engine.events_fired counter tracks the engine"
    (Eventsim.Engine.events_fired (Hbh.Protocol.engine session))
    (counter "engine.events_fired")

(* The owner contract of [Obs.Metrics.bind]: a session (with its
   engine, network and routing table) built under registry A counts
   into A even when it is run under [with_registry B]. *)
let test_owner_keeps_registry () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  let session =
    Obs.Metrics.with_registry a (fun () ->
        let table = Routing.Table.compute (Topology.Isp.create ()) in
        Hbh.Protocol.create table ~source:Topology.Isp.source)
  in
  Obs.Metrics.with_registry b (fun () ->
      List.iter (Hbh.Protocol.subscribe session) [ 20; 25; 33 ];
      Hbh.Protocol.converge session);
  let count reg name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.Metrics.snapshot reg).Obs.Metrics.counters)
  in
  let names =
    [
      "engine.events_fired";
      "net.ctl_hops";
      "routing.cache_hits";
      "proto.hbh.join_msgs";
      "proto.hbh.mft_updates";
    ]
  in
  Alcotest.(check int) "A holds the engine's events"
    (Eventsim.Engine.events_fired (Hbh.Protocol.engine session))
    (count a "engine.events_fired");
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " counted in A") true (count a name > 0);
      Alcotest.(check int) (name ^ " untouched in B") 0 (count b name))
    names

(* ---- Rollup ----------------------------------------------------------- *)

let test_rollup_slots_and_overflow () =
  let r = Obs.Metrics.create () in
  let roll =
    Obs.Rollup.create ~max_series:3
      ~labels:(Obs.Labels.v [ ("protocol", "hbh") ])
      r
  in
  (* First three values claim their own series; the fourth spills. *)
  List.iter
    (fun ch -> Obs.Metrics.incr (Obs.Rollup.counter roll "churn.joins" ch))
    [ "c0"; "c1"; "c2"; "c3"; "c4"; "c0" ];
  Alcotest.(check int) "three slots" 3 (Obs.Rollup.series_count roll);
  Alcotest.(check bool) "spilled" true (Obs.Rollup.spilled roll);
  let snap = Obs.Metrics.snapshot r in
  let get ch =
    List.assoc_opt
      (Obs.Labels.series_name "churn.joins"
         (Obs.Labels.v [ ("channel", ch); ("protocol", "hbh") ]))
      snap.Obs.Metrics.counters
  in
  Alcotest.(check (option int)) "hot channel counted twice" (Some 2) (get "c0");
  Alcotest.(check (option int)) "own series" (Some 1) (get "c1");
  (* c3 and c4 share the overflow series, labelled channel="_other". *)
  Alcotest.(check (option int)) "tail aggregated" (Some 2) (get "_other");
  Alcotest.(check (option int)) "no own series past the cap" None (get "c3")

let test_rollup_stable_mapping () =
  let r = Obs.Metrics.create () in
  let roll = Obs.Rollup.create ~max_series:2 r in
  let a = Obs.Labels.v [ ("channel", "a") ] in
  (* Same value, same labels — across instruments too. *)
  Obs.Metrics.incr (Obs.Rollup.counter roll "m.events" "a");
  Obs.Metrics.incr (Obs.Rollup.counter roll "m.events" "a");
  Obs.Metrics.set (Obs.Rollup.gauge roll "m.depth" "a") 4.0;
  let snap = Obs.Metrics.snapshot r in
  Alcotest.(check (option int)) "memoized: counter under same labels" (Some 2)
    (List.assoc_opt (Obs.Labels.series_name "m.events" a) snap.Obs.Metrics.counters);
  Alcotest.(check bool) "gauge under same labels" true
    (List.assoc_opt (Obs.Labels.series_name "m.depth" a) snap.Obs.Metrics.gauges
    = Some 4.0)

let test_rollup_rejects_bad_config () =
  let r = Obs.Metrics.create () in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "max_series >= 1" true
    (raises (fun () -> Obs.Rollup.create ~max_series:0 r));
  Alcotest.(check bool) "key clash with base labels" true
    (raises (fun () ->
         Obs.Rollup.create ~labels:(Obs.Labels.v [ ("channel", "x") ]) r))

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "eviction order" `Quick test_ring_eviction;
          Alcotest.test_case "partial fill" `Quick test_ring_partial;
          Alcotest.test_case "truncation accounting" `Quick
            test_ring_truncation_accounting;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter_semantics;
          Alcotest.test_case "gauge" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram" `Quick test_histogram_semantics;
          Alcotest.test_case "histogram NaN" `Quick test_histogram_nan_quarantined;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "histogram quantile edge cases" `Quick
            test_histogram_quantile_edges;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "two runs equal one run" `Quick
            test_two_runs_equal_one_run;
          Alcotest.test_case "owner keeps its registry" `Quick
            test_owner_keeps_registry;
        ] );
      ( "labels",
        [
          Alcotest.test_case "canonical identity" `Quick test_labels_canonical;
          Alcotest.test_case "validation and rendering" `Quick
            test_labels_validation;
        ] );
      ( "rollup",
        [
          Alcotest.test_case "slots and overflow" `Quick
            test_rollup_slots_and_overflow;
          Alcotest.test_case "stable mapping" `Quick test_rollup_stable_mapping;
          Alcotest.test_case "rejects bad config" `Quick
            test_rollup_rejects_bad_config;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "sampling determinism" `Quick
            test_timeline_determinism;
          Alcotest.test_case "registration guards" `Quick
            test_timeline_registration_guards;
        ] );
      ( "span",
        [
          Alcotest.test_case "open/close balance" `Quick test_span_balance;
          QCheck_alcotest.to_alcotest prop_span_stats_order_free;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "text exposition" `Quick
            test_openmetrics_exposition;
        ] );
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "metrics snapshot round-trip" `Quick
            test_snapshot_json_roundtrip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "notef short-circuits" `Quick
            test_notef_short_circuit;
          Alcotest.test_case "sink without ring" `Quick test_sink_without_ring;
          Alcotest.test_case "bounded, ordered" `Quick test_ring_bound_and_order;
        ] );
      ( "integration",
        [
          Alcotest.test_case "ISP HBH run reports" `Quick
            test_hbh_isp_run_reports;
        ] );
    ]
