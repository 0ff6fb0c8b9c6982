(* The benchmark executable:

     bench.exe --workload sweep|churn|verify --seed N --seconds S --trace 0|1

   runs one workload's timed ops for S seconds (churn: a fixed 240 ops;
   verify: a fixed two passes over its 35 explorer seeds) and prints, as
   its last line, one JSON object {correct, attempted, failed, metrics}.  With
   --trace 0 the metrics are the end-to-end set; with --trace 1 they are
   the per-layer set, and the layer ladder is printed above the JSON.
   See README.md in this directory. *)

module H = Harness

(* Per-layer metrics: name, unit.  Every workload reports every one;
   a layer the workload does not exercise reads 0. *)
let protos = Array.to_list (Array.map snd Verify_wl.protocols)

let per_layer =
  [
    ("host.ref_ms", "ms");
    ("host.raw_ops_per_s", "1/s");
    ("op_ms_p90", "ms");
    ("trace.overhead_pct", "%");
    ("ladder.sum_ms", "ms");
    ("ladder.gap_pct", "%");
    ("workload.scenario_ms", "ms");
    ("pim.sm_ms", "ms");
    ("pim.ss_ms", "ms");
    ("reunite.analytic_ms", "ms");
    ("core.analytic_ms", "ms");
    ("routing.spf_per_op", "count");
    ("routing.hit_ratio", "ratio");
    ("routing.spf_ms", "ms");
    ("gc.minor_words_per_op", "words");
    ("gc.words_per_hop", "words");
    ("gc.major_per_op", "count");
    ("churn.hbh_ms", "ms");
    ("churn.reunite_ms", "ms");
    ("churn.pim-ssm_ms", "ms");
    ("eventsim.events_per_op", "count");
    ("netsim.control_hops_per_op", "count");
    ("netsim.data_hops_per_op", "count");
  ]
  @ List.map (fun n -> ("proto." ^ n ^ ".msgs_per_op", "count")) H.session_names
  @ [
      ("topology.gen_ms", "ms");
      ("routing.fill_s", "s");
      ("proto.attach_ms", "ms");
      ("churn.warmup_s", "s");
      ("routing.heap_mb", "MB");
    ]
  @ List.concat_map
      (fun p ->
        [
          ("churn." ^ p ^ ".missed_ops", "count");
          ("churn." ^ p ^ ".dup_deliveries", "count");
          ("churn." ^ p ^ ".late_deliveries", "count");
        ])
      [ "hbh"; "reunite"; "pim-ssm" ]
  @ List.concat_map
      (fun p ->
        [ ("verif." ^ p ^ ".explore_ms", "ms"); ("verif." ^ p ^ ".cx_ops", "count") ])
      protos
  @ [
      ("verif.states_per_op", "count");
      ("verif.transitions_per_op", "count");
      ("verif.dedup_ratio", "ratio");
      ("verif.oracle_checks_per_op", "count");
      ("eventsim.event_ns", "ns");
      ("eventsim.wheel_ns", "ns");
      ("netsim.hop_ns", "ns");
      ("proto.mux_dispatch_ns", "ns");
    ]
  @ List.concat_map
      (fun p ->
        [
          ("verif." ^ p ^ ".save_restore_us", "us");
          ("verif." ^ p ^ ".digest_us", "us");
          ("verif." ^ p ^ ".oracle_ms", "ms");
          ("verif." ^ p ^ ".quiesce_ms", "ms");
        ])
      protos

let usage () =
  prerr_endline
    "usage: bench.exe --workload sweep|churn|verify --seed N --seconds S \
     --trace 0|1";
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace :=
          (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0.0 ->
      (!workload, seed, seconds, trace)
  | _ -> usage ()

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metric (name, unit_, v) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_

let print_ladder name (r : H.result) units =
  let ladder = r.ladder (fun n -> List.assoc n units) in
  let measured = H.ratio (H.sum r.loop.op_ms) (float_of_int (Array.length r.loop.op_ms)) in
  let sum = List.fold_left (fun acc (_, v, _) -> acc +. v) 0.0 ladder in
  Printf.printf "== layer ladder: %s (host-normalised ms per op; counts over the first %d ops) ==\n" name r.loop.window;
  List.iter
    (fun (term, v, how) -> Printf.printf "  %-34s %12.4f  %s\n" term v how)
    ladder;
  Printf.printf "  %-34s %12.4f\n" "layer sum" sum;
  Printf.printf "  %-34s %12.4f  (%d untraced ops)\n" "measured op time (mean)"
    measured (Array.length r.loop.op_ms);
  Printf.printf "  %-34s %12.4f  (%.1f%% of the op is outside the ladder)\n"
    "gap" (measured -. sum)
    (100.0 *. H.ratio (measured -. sum) measured);
  (sum, 100.0 *. H.ratio (measured -. sum) measured)

let () =
  let workload, seed, seconds, trace = args () in
  let run, ref_mb =
    match workload with
    | "sweep" -> (Sweep_wl.run, 8)
    | "churn" -> (Churn_wl.run, 8)
    | "verify" -> (Verify_wl.run, 2)
    | _ -> usage ()
  in
  H.set_reference_mb ref_mb;
  let r = run ~seed ~seconds ~trace in
  let l = r.loop in
  let norm_s = H.sum l.op_ms /. 1000.0 in
  let ops_per_s = H.ratio (float_of_int (Array.length l.op_ms)) norm_s in
  let metrics =
    if not trace then
      [
        ("ops_per_s", "1/s", ops_per_s);
        ("op_ms_p50", "ms", H.median l.op_ms);
        ("setup_s", "s", r.setup_s);
        ("peak_rss_mb", "MB", H.peak_rss_mb ());
      ]
    else begin
      let units = Ladder.units ~seed in
      let sum, gap = print_ladder workload r units in
      let traced = H.median l.traced_ms and untraced = H.median l.op_ms in
      Printf.printf
        "tracing overhead: traced op p50 %.4f ms vs untraced %.4f ms (%+.2f%%)\n"
        traced untraced (100.0 *. (H.ratio traced untraced -. 1.0));
      let diag =
        [
          ("host.ref_ms", H.median l.refs);
          ("host.raw_ops_per_s",
           H.ratio (float_of_int l.ops) (H.sum l.raw_ms /. 1000.0));
          ("op_ms_p90", H.quantile l.op_ms 0.9);
          ("trace.overhead_pct", 100.0 *. (H.ratio traced untraced -. 1.0));
          ("ladder.sum_ms", sum);
          ("ladder.gap_pct", gap);
        ]
      in
      let all = diag @ r.layers @ units in
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n per_layer) then
            failwith ("unregistered per-layer metric " ^ n))
        all;
      List.map
        (fun (n, u) ->
          (n, u, Option.value ~default:0.0 (List.assoc_opt n all)))
        per_layer
    end
  in
  (match l.ended with
  | H.Completed -> ()
  | H.Stopped msg -> Printf.printf "%s: %s; the run ended there\n" workload msg
  | H.Crashed msg -> Printf.eprintf "bench: an op raised %s\n" msg);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (match l.ended with H.Crashed _ -> false | _ -> true)
    l.ops r.failed
    (String.concat ", " (List.map metric metrics))
