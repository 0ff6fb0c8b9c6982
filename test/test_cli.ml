(* CLI argument-validation contract: every bad invocation — unknown
   subcommand, unknown knob, non-positive duration or interval —
   must exit 2 through the one shared usage printer, so scripts can
   tell "bad invocation" from "run failed" (exit 1) and "run passed"
   (exit 0).  Exercised against the real binary, not Cmdliner
   internals: these are the exact command lines CI and the docs
   advertise. *)

let exe = Filename.concat (Filename.concat ".." "bin") "hbh_sim.exe"

let run args =
  let code =
    Sys.command
      (Printf.sprintf "%s %s >cli_out.txt 2>cli_err.txt" exe args)
  in
  let read f =
    let ic = open_in f in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  (code, read "cli_out.txt", read "cli_err.txt")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_usage_exit name args ~msg =
  let code, _, err = run args in
  Alcotest.(check int) (name ^ ": exit code") 2 code;
  Alcotest.(check bool)
    (name ^ ": diagnostic on stderr")
    true (contains err msg);
  Alcotest.(check bool)
    (name ^ ": shared usage printer ran")
    true
    (contains err "usage: hbh_sim")

let test_soak_negative_hours () =
  check_usage_exit "soak --hours=-1" "soak --hours=-1"
    ~msg:"--hours must be a positive number"

let test_soak_too_short () =
  check_usage_exit "soak --hours 0.1" "soak --hours 0.1"
    ~msg:"no room for a partition/heal cycle"

let test_soak_unknown_knob () =
  check_usage_exit "soak --frobnicate" "soak --frobnicate"
    ~msg:"unknown option"

let test_faults_bad_timeline () =
  check_usage_exit "faults --timeline=-5" "faults --timeline=-5"
    ~msg:"--timeline needs a positive sampling interval"

(* A sampling interval below the smallest link delay (1) is refused:
   at 1e-300 the sample clock stops advancing and the run exhausts
   memory, and timeline timers count against the faults event budget. *)
let test_faults_sub_unit_timeline () =
  check_usage_exit "faults --timeline=0.5"
    "faults --timeline=0.5 --scenario crash --protocol hbh"
    ~msg:"--timeline needs a positive sampling interval of at least 1"

let test_churn_sub_unit_sample_interval () =
  check_usage_exit "churn --sample-every 0.5"
    "churn --sample-every 0.5 --routers 16 --channels 2 --horizon 10"
    ~msg:"--sample-every must be a positive interval of at least 1"

let test_report_sub_unit_interval () =
  check_usage_exit "report --interval 0.5" "report --interval 0.5"
    ~msg:"--interval needs a positive sampling interval of at least 1"

let test_unknown_subcommand () =
  check_usage_exit "definitely-not-a-command" "definitely-not-a-command"
    ~msg:"unknown command"

let test_churn_zero_channels () =
  check_usage_exit "churn --channels 0" "churn --channels 0"
    ~msg:"--channels must be >= 1"

let test_churn_tiny_topology () =
  check_usage_exit "churn --routers 4" "churn --routers 4"
    ~msg:"--routers must be >= 16"

let test_churn_negative_rate () =
  check_usage_exit "churn --rate=-0.5" "churn --rate=-0.5"
    ~msg:"--rate must be a positive join rate"

let test_churn_bad_generator () =
  check_usage_exit "churn --gen ladder" "churn --gen ladder" ~msg:"--gen"

let test_churn_bad_sample_interval () =
  check_usage_exit "churn --sample-every 0" "churn --sample-every 0"
    ~msg:"--sample-every must be a positive interval"

(* The shared --protocol converter: the registry-derived spelling
   [hpim-dm] must be accepted wherever --protocol is, near-misses must
   be rejected by the enum with the known names listed, and validate —
   which has analytic oracles only for the soft-state refcounting
   protocols — must refuse it through the same exit-2 funnel. *)
let test_protocol_bad_spelling () =
  check_usage_exit "faults --protocol hpimdm" "faults --protocol hpimdm"
    ~msg:"invalid value 'hpimdm'"

(* verify shares the converter: same rejection, with the registry's
   known names on stderr. *)
let test_verify_bad_spelling () =
  check_usage_exit "verify --protocol hpimdm" "verify --protocol hpimdm"
    ~msg:"invalid value 'hpimdm'";
  let _, _, err = run "verify --protocol hpimdm" in
  Alcotest.(check bool)
    "known names listed" true
    (contains err "hbh|reunite|pim-ssm|hpim-dm")

let test_validate_rejects_hpim () =
  check_usage_exit "validate --protocol hpim-dm" "validate --protocol hpim-dm"
    ~msg:"validate has no analytic HPIM-DM oracle"

let test_usage_advertises_hpim () =
  let _, _, err = run "definitely-not-a-command" in
  Alcotest.(check bool)
    "usage lists hpim-dm" true
    (contains err "hbh|reunite|pim-ssm|hpim-dm")

(* Values the runs would otherwise trip over deep inside (an array
   sized by a negative count, a generator asked for a graph it cannot
   build, a timeline with no sampling step) are bad invocations too.
   So is zero runs, which averages nothing: the sweeps printed [nan]
   and validate a vacuous "0 scenarios" pass. *)
let test_negative_runs () =
  List.iter
    (fun args -> check_usage_exit args args ~msg:"expected an integer >= 1")
    ("validate --scenarios 0"
    :: List.concat_map
         (fun cmd -> [ cmd ^ " --runs=-1"; cmd ^ " --runs 0" ])
         [
           "fig7a"; "fig7b"; "fig8a"; "fig8b"; "all"; "stability"; "state";
           "scaling"; "symmetry-ablation"; "overhead"; "rp-ablation";
         ])

let test_report_zero_interval () =
  check_usage_exit "report --interval 0" "report --interval 0"
    ~msg:"--interval needs a positive sampling interval"

(* Every output file goes through one writer: a path that cannot be
   opened is reported by name and exits 2, whichever flag named it. *)
let test_unwritable_output () =
  List.iter
    (fun (args, file) ->
      check_usage_exit args args ~msg:("cannot write " ^ file))
    [
      ("fig7a --runs 1 --metrics-json no-such-dir/m.json", "no-such-dir/m.json");
      ("report --out no-such-dir/r.md", "no-such-dir/r.md");
      ("verify --protocol hbh --depth 1 --json no-such-dir/v.json",
        "no-such-dir/v.json");
    ]

(* Every range-checked flag rejects a negative, a non-finite and a
   non-numeric value in the parser, naming the flag, so no run starts
   with a count or duration it cannot use (or reports a vacuous pass:
   a negative --depth explores nothing and finds no counterexample). *)
let range_checked =
  [
    ("fig7a", "runs");
    ("fig7a", "jobs");
    ("fig7a --runs 1", "trace");
    ("validate", "scenarios");
    ("verify --protocol hbh", "depth");
    ("verify --protocol hbh", "states");
    ("churn", "channels");
    ("churn", "routers");
    ("soak", "hours");
    ("churn", "rate");
    ("churn", "hold");
    ("churn", "horizon");
    ("churn", "sample-every");
    ("report", "interval");
    ("faults", "timeline");
  ]

let test_range_checked_values () =
  List.iter
    (fun (cmd, flag) ->
      List.iter
        (fun v ->
          let args = Printf.sprintf "%s --%s=%s" cmd flag v in
          check_usage_exit args args ~msg:("--" ^ flag))
        [ "-1"; "nan"; "inf"; "x" ])
    range_checked

(* --help is the only per-command flag inventory: it must render for
   every subcommand. *)
let test_help_every_command () =
  List.iter
    (fun cmd ->
      let code, out, _ = run (cmd ^ " --help=plain") in
      Alcotest.(check int) (cmd ^ " --help exit code") 0 code;
      Alcotest.(check bool)
        (cmd ^ " --help lists --seed") true (contains out "--seed"))
    [
      "fig7a"; "fig7b"; "fig8a"; "fig8b"; "all"; "stability"; "state";
      "demo-asymmetry"; "demo-duplication"; "rp-ablation"; "scaling";
      "symmetry-ablation"; "overhead"; "asymmetry"; "validate"; "faults";
      "churn"; "soak"; "report"; "verify";
    ]

(* One good invocation end to end: the short soak must complete with
   silent monitors and exit 0 — the same gate the CI smoke greps. *)
let test_soak_smoke () =
  let code, out, _ = run "soak --hours 1 --seed 42 --protocol hbh" in
  Alcotest.(check int) "soak exit code" 0 code;
  Alcotest.(check bool)
    "monitors silent" true
    (contains out "monitors: 0 violations")

(* Same gate for the hard-state instance: accepted spelling, clean
   run, silent runtime monitors. *)
let test_soak_smoke_hpim () =
  let code, out, _ = run "soak --hours 1 --seed 42 --protocol hpim-dm" in
  Alcotest.(check int) "soak exit code" 0 code;
  Alcotest.(check bool)
    "monitors silent" true
    (contains out "monitors: 0 violations")

(* churn's default protocol set is HBH, REUNITE and PIM-SSM; HPIM-DM
   runs only when named, since at the default size its per-channel
   neighbour state does not fit in memory. *)
let tiny_churn =
  "churn --routers 16 --channels 2 --horizon 100 --sample-every 50"

let test_churn_default_protocols () =
  let code, out, _ = run tiny_churn in
  Alcotest.(check int) "churn exit code" 0 code;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p ^ " row printed") true
        (contains out (p ^ "/normal")))
    [ "HBH"; "REUNITE"; "PIM-SSM" ];
  Alcotest.(check bool) "no HPIM-DM row" false (contains out "HPIM-DM");
  let code, out, _ = run (tiny_churn ^ " --protocol hpim-dm") in
  Alcotest.(check int) "named hpim-dm exit code" 0 code;
  Alcotest.(check bool)
    "named hpim-dm runs" true
    (contains out "HPIM-DM/normal")

let () =
  Alcotest.run "cli"
    [
      ( "exit-2 funnel",
        [
          Alcotest.test_case "soak rejects negative --hours" `Quick
            test_soak_negative_hours;
          Alcotest.test_case "soak rejects a too-short horizon" `Quick
            test_soak_too_short;
          Alcotest.test_case "soak rejects unknown knobs" `Quick
            test_soak_unknown_knob;
          Alcotest.test_case "faults rejects a non-positive --timeline" `Quick
            test_faults_bad_timeline;
          Alcotest.test_case "unknown subcommands funnel to usage" `Quick
            test_unknown_subcommand;
          Alcotest.test_case "churn rejects zero --channels" `Quick
            test_churn_zero_channels;
          Alcotest.test_case "churn rejects a toy topology" `Quick
            test_churn_tiny_topology;
          Alcotest.test_case "churn rejects a negative --rate" `Quick
            test_churn_negative_rate;
          Alcotest.test_case "churn rejects an unknown --gen" `Quick
            test_churn_bad_generator;
          Alcotest.test_case "churn rejects a zero --sample-every" `Quick
            test_churn_bad_sample_interval;
          Alcotest.test_case "--protocol rejects near-miss spellings" `Quick
            test_protocol_bad_spelling;
          Alcotest.test_case "verify rejects near-miss spellings" `Quick
            test_verify_bad_spelling;
          Alcotest.test_case "validate refuses hpim-dm" `Quick
            test_validate_rejects_hpim;
          Alcotest.test_case "usage advertises hpim-dm" `Quick
            test_usage_advertises_hpim;
          Alcotest.test_case "sweeps reject a negative --runs" `Quick
            test_negative_runs;
          Alcotest.test_case "report rejects a zero --interval" `Quick
            test_report_zero_interval;
          Alcotest.test_case "faults rejects a sub-unit --timeline" `Quick
            test_faults_sub_unit_timeline;
          Alcotest.test_case "churn rejects a sub-unit --sample-every" `Quick
            test_churn_sub_unit_sample_interval;
          Alcotest.test_case "report rejects a sub-unit --interval" `Quick
            test_report_sub_unit_interval;
          Alcotest.test_case "unwritable output paths exit 2" `Quick
            test_unwritable_output;
          Alcotest.test_case "range-checked flags reject bad values" `Quick
            test_range_checked_values;
          Alcotest.test_case "--help renders for every subcommand" `Quick
            test_help_every_command;
        ] );
      ( "soak smoke",
        [
          Alcotest.test_case "1-hour HBH soak passes with silent monitors"
            `Quick test_soak_smoke;
          Alcotest.test_case "1-hour HPIM-DM soak passes with silent monitors"
            `Quick test_soak_smoke_hpim;
        ] );
      ( "churn default",
        [
          Alcotest.test_case "churn runs HPIM-DM only when named" `Quick
            test_churn_default_protocols;
        ] );
    ]
