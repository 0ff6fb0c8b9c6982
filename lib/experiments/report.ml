(* The convergence report: one markdown document tying together the
   fault-recovery outcomes, the per-case recovery timelines, the
   repair and join-latency quantiles, and the runtime
   invariant monitors' verdict.  Deterministic in the seed — the
   document is byte-stable across runs. *)

let md_table b ~headers rows =
  let line cells =
    Buffer.add_string b "| ";
    Buffer.add_string b (String.concat " | " cells);
    Buffer.add_string b " |\n"
  in
  line headers;
  line (List.map (fun _ -> "---") headers);
  List.iter line rows

let fmt_f v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v

let span_stats_row label (s : Obs.Span.stats) =
  [
    label;
    string_of_int s.Obs.Span.n;
    fmt_f s.Obs.Span.mean;
    fmt_f s.Obs.Span.p50;
    fmt_f s.Obs.Span.p95;
    fmt_f s.Obs.Span.p99;
    fmt_f s.Obs.Span.max;
  ]

let markdown ~seed ~(outcomes : Faults.outcome list)
    ~(obs : Faults.case_obs list) ~(join_latency : Faults.join_latency list) ()
    =
  let b = Buffer.create 8192 in
  let sec fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  sec "# Convergence report (seed %d)" seed;
  sec "";
  sec
    "Fault recovery, repair and join-latency quantiles, and runtime invariant";
  (match List.rev_map Verif.Sut.label Verif.Sut.all with
  | last :: rest ->
      sec "monitors for %s and %s on the two evaluation topologies."
        (String.concat ", " (List.rev rest))
        last
  | [] -> ());
  sec "";
  sec "## Fault recovery";
  sec "";
  md_table b ~headers:Faults.headers (List.map Faults.row outcomes);
  sec "";
  sec "## Time-to-repair spans";
  sec "";
  sec "Per-case spans from the fault instant to each receiver's first";
  sec "delivery of a post-fault packet (exact quantiles).";
  sec "";
  md_table b
    ~headers:[ "case"; "repairs"; "mean"; "p50"; "p95"; "p99"; "max" ]
    (List.map
       (fun (c : Faults.case_obs) ->
         span_stats_row c.Faults.c_label c.Faults.c_repair)
       obs);
  sec "";
  sec "## Join latency";
  sec "";
  sec "Subscribe on a live stream to first packet heard, joins staggered";
  sec "one at a time (exact quantiles over members).";
  sec "";
  md_table b
    ~headers:[ "topology"; "protocol"; "joins"; "mean"; "p50"; "p95"; "p99"; "max" ]
    (List.map
       (fun (jl : Faults.join_latency) ->
         let s = jl.Faults.jl_stats in
         [
           jl.Faults.jl_topology;
           Verif.Sut.label jl.Faults.jl_proto;
           string_of_int s.Obs.Span.n;
           fmt_f s.Obs.Span.mean;
           fmt_f s.Obs.Span.p50;
           fmt_f s.Obs.Span.p95;
           fmt_f s.Obs.Span.p99;
           fmt_f s.Obs.Span.max;
         ])
       join_latency);
  sec "";
  let timelines =
    List.filter_map
      (fun (c : Faults.case_obs) ->
        Option.map (fun tl -> (c.Faults.c_label, tl)) c.Faults.c_timeline)
      obs
  in
  if timelines <> [] then begin
    sec "## Recovery timelines";
    sec "";
    sec "Sampled every %g time units (times relative to the converged start"
      (Obs.Timeline.interval (snd (List.hd timelines)));
    sec "of each case; the fault lands at t=300, the repair at t=700).";
    List.iter
      (fun (label, tl) ->
        sec "";
        sec "### %s" label;
        sec "";
        sec "```";
        Buffer.add_string b (Format.asprintf "%a" Obs.Timeline.pp tl);
        sec "```")
      timelines;
    sec ""
  end;
  let monitors =
    List.filter_map
      (fun (c : Faults.case_obs) ->
        Option.map (fun m -> (c.Faults.c_label, m)) c.Faults.c_monitor)
      obs
  in
  if monitors <> [] then begin
    sec "## Invariant monitors";
    sec "";
    let total_checks =
      List.fold_left (fun a (_, m) -> a + Verif.Monitor.checks m) 0 monitors
    in
    let total_violations =
      List.fold_left
        (fun a (_, m) -> a + Verif.Monitor.violation_count m)
        0 monitors
    in
    sec "monitors: %d violations (%d checks across %d cases)" total_violations
      total_checks (List.length monitors);
    List.iter
      (fun (label, m) ->
        List.iter
          (fun (c : Verif.Monitor.confirmed) ->
            sec "- %s: t=%.0f %s: %s" label c.Verif.Monitor.time
              c.Verif.Monitor.violation.Verif.Oracle.oracle
              c.Verif.Monitor.violation.Verif.Oracle.detail)
          (Verif.Monitor.violations m))
      monitors;
    sec ""
  end;
  Buffer.contents b
