type outcome = {
  scenarios : int;
  exact : int;
  delivered_all : int;
  close : int;
  mismatches : (int * int) list;
}

let sizes_of (config : Common.config) =
  (* A light slice of the sweep sizes: smallest, middle, largest. *)
  match config.sizes with
  | [] -> []
  | l ->
      let a = Array.of_list l in
      List.sort_uniq compare
        [ a.(0); a.(Array.length a / 2); a.(Array.length a - 1) ]

let run ?(scenarios = 30) ?(seed = 42) p (config : Common.config) =
  let master = Stats.Rng.create seed in
  let sizes = sizes_of config in
  let exact = ref 0 and delivered = ref 0 and close = ref 0 in
  let mismatches = ref [] in
  for i = 1 to scenarios do
    let rng = Stats.Rng.split master in
    let n = List.nth sizes (i mod List.length sizes) in
    let s =
      Workload.Scenario.make rng config.graph ~source:config.source
        ~candidates:config.candidates ~n
    in
    let event, _ = Common.paper_run p s in
    let analytic = Common.paper_reference p s in
    if Mcast.Distribution.equal_shape event analytic then incr exact
    else mismatches := (i, n) :: !mismatches;
    let delivered_all =
      Mcast.Distribution.receivers event = List.sort compare s.receivers
    in
    if delivered_all then incr delivered;
    let ce = float_of_int (Mcast.Distribution.cost event) in
    let ca = float_of_int (Mcast.Distribution.cost analytic) in
    if delivered_all && ca > 0.0 && Float.abs (ce -. ca) /. ca <= 0.2 then
      incr close
  done;
  {
    scenarios;
    exact = !exact;
    delivered_all = !delivered;
    close = !close;
    mismatches = List.rev !mismatches;
  }

let pp ppf o =
  Format.fprintf ppf
    "%d scenarios: %d exact tree matches, %d within 20%% cost, %d with all receivers served"
    o.scenarios o.exact o.close o.delivered_all;
  match o.mismatches with
  | [] -> ()
  | l ->
      Format.fprintf ppf " (non-exact:%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (fun ppf (i, n) -> Format.fprintf ppf " #%d/n=%d" i n))
        l
