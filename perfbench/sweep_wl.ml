(* [sweep]: the paper's Fig. 7(b)/8(b) Monte-Carlo on RAND50.

   One op is one run index across all nine group sizes (5..45): per size
   it redraws the asymmetric costs and samples receivers, then builds
   the PIM-SM, PIM-SS, REUNITE and HBH trees and reads their cost and
   delay — exactly one {!Experiments.Common.sweep_sample} per size.  The
   op is analytic: the event engine, the network simulator and the
   protocol runtime do no work in it. *)

module H = Harness
module C = Experiments.Common

let window = 100
let setup_repeats = 11

let span_names =
  [| "workload.scenario_ms"; "pim.sm_ms"; "pim.ss_ms"; "reunite.analytic_ms";
     "core.analytic_ms" |]

let span_of = function
  | C.Pim_sm -> 1
  | C.Pim_ss -> 2
  | C.Reunite -> 3
  | C.Hbh -> 4

type draw = {
  scen : Workload.Scenario.t;
  trees : (C.protocol * Mcast.Distribution.t) list;
}

(* One run index: the work timed.  Mirrors [C.sweep_sample]. *)
let op ~sp ~seed (cfg : C.config) i =
  List.map
    (fun n ->
      let rng = Stats.Rng.derive2 ~seed ~a:n ~b:i in
      let scen =
        H.span sp 0 (fun () ->
            Workload.Scenario.make rng (Topology.Graph.copy cfg.graph)
              ~source:cfg.source ~candidates:cfg.candidates ~n)
      in
      let trees =
        List.map
          (fun p -> (p, H.span sp (span_of p) (fun () -> C.build p rng scen)))
          C.all_protocols
      in
      { scen; trees })
    cfg.sizes

(* Every tree reaches exactly the drawn receivers with no duplicate
   delivery, and HBH's receiver delay equals the unicast distance. *)
let check draws =
  List.for_all
    (fun { scen; trees } ->
      let want = List.sort compare scen.Workload.Scenario.receivers in
      List.for_all
        (fun (p, d) ->
          Mcast.Distribution.receivers d = want
          && Mcast.Distribution.duplicate_deliveries d = 0
          && (p <> C.Hbh
             || List.for_all
                  (fun r ->
                    let dist =
                      Routing.Table.distance scen.table scen.source r
                    in
                    Mcast.Distribution.delay d r = Some (float_of_int dist))
                  want))
        trees)
    draws

let run ~seed ~seconds ~trace =
  let sp = H.spans span_names in
  (* Set-up: the input build plus one untimed warm-up op, as one slice
     (the input build alone is sub-millisecond); repeated, median kept. *)
  let setups =
    Array.init setup_repeats (fun _ ->
        let st = H.setup_begin () in
        let cfg =
          H.slice st "setup" (fun () ->
              let cfg = C.rand50_config ~seed in
              ignore (op ~sp ~seed cfg 0);
              cfg)
        in
        (cfg, H.total_s st))
  in
  let cfg = fst setups.(0) in
  let setup_s = H.median (Array.map snd setups) in
  let spf0 = H.counter "routing.spf_runs" and hit0 = H.counter "routing.cache_hits" in
  let spf = ref 0 and hits = ref 0 in
  let at_window _ =
    spf := H.counter "routing.spf_runs" - spf0;
    hits := H.counter "routing.cache_hits" - hit0
  in
  let loop =
    H.run_ops ~seconds ~trace ~sp ~window ~at_window (fun _ i ->
        let draws = op ~sp ~seed cfg i in
        Some (fun () -> check draws))
  in
  let per_op v = H.ratio (float_of_int v) (float_of_int loop.window) in
  let span_ms n = H.span_mean_ms sp n in
  let layers =
    [
      ("routing.spf_per_op", per_op !spf);
      ("routing.hit_ratio",
       H.ratio (float_of_int !hits) (float_of_int (!hits + !spf)));
      ("gc.minor_words_per_op", loop.minor_words);
    ]
    @ Array.to_list (Array.map (fun n -> (n, span_ms n)) span_names)
  in
  let ladder _units =
    Array.to_list
      (Array.map (fun n -> (n, span_ms n, "span around the call")) span_names)
  in
  { H.loop; failed = loop.failed; setup_s; layers; ladder }
