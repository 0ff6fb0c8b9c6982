module R = Routing.Table

type violation = Sut.violation = { oracle : string; detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "%s: %s" v.oracle v.detail

(* ---- Tree structure: loop-free and spans exactly the members ----------- *)

(* Expand the data-plane fan-out graph from the source, following the
   unicast paths each logical copy takes, each node's targets read
   once per check from the session's own fan-out rule.  [stack] is
   the chain of fan-out nodes on the current recursion path:
   revisiting one is a forwarding loop.  [expanded] memoizes globally for termination —
   checked only after the loop test, so cycles through
   already-expanded nodes are still caught. *)
let tree_check (sut : Sut.t) =
  let violations = ref [] in
  let targets = Hashtbl.create 16 in
  let targets_of n =
    match Hashtbl.find_opt targets n with
    | Some ts -> ts
    | None ->
        let ts = sut.Sut.data_targets n in
        Hashtbl.replace targets n ts;
        ts
  in
  let covered = Hashtbl.create 16 in
  let expanded = Hashtbl.create 16 in
  let rec expand n stack =
    if List.mem n stack then begin
      (* A revisit is a packet loop only for protocols that flood
         along installed tree hops (HBH, PIM).  Under recursive
         unicast (REUNITE) every copy is addressed to a receiver and a
         node forks a given epoch at most once, so the cycle cannot
         circulate packets — it is the duplicate-link-traversal
         anomaly the paper charges REUNITE with, a cost inflation the
         delivery oracles meter, not a loop. *)
      if not sut.Sut.intercept_on_path then
        violations :=
          {
            oracle = "tree_loop_free";
            detail =
              Printf.sprintf "forwarding loop: %s"
                (String.concat " -> "
                   (List.rev_map string_of_int (n :: stack)));
          }
          :: !violations
    end
    else if not (Hashtbl.mem expanded n) then begin
      Hashtbl.replace expanded n ();
      List.iter (fun dst -> copy ~from:n ~dst ~stack:(n :: stack)) (targets_of n)
    end
  and copy ~from ~dst ~stack =
    if not (R.reachable sut.Sut.table from dst) then
      violations :=
        {
          oracle = "tree_span";
          detail =
            Printf.sprintf "copy %d -> %d has no unicast route" from dst;
        }
        :: !violations
    else begin
      (* REUNITE intercepts through-traffic: interior on-path nodes
         holding forwarding state fork the copy before it reaches
         [dst], so they join the expansion too. *)
      if sut.Sut.intercept_on_path then
        List.iter
          (fun hop ->
            if hop <> from && hop <> dst && targets_of hop <> [] then
              expand hop stack)
          (R.path sut.Sut.table from dst);
      Hashtbl.replace covered dst ();
      if sut.Sut.node_up dst && targets_of dst <> [] then expand dst stack
    end
  in
  if sut.Sut.node_up sut.Sut.source then expand sut.Sut.source [];
  (* Span: every reachable member covered, no covered non-member
     candidate (stale state still attracting data). *)
  let reachable = Sut.reachable sut in
  let members = sut.Sut.members () in
  List.iter
    (fun m ->
      if reachable.(m) && not (Hashtbl.mem covered m) then
        violations :=
          {
            oracle = "tree_span";
            detail = Printf.sprintf "member %d not covered by the tree" m;
          }
          :: !violations)
    members;
  List.iter
    (fun c ->
      if Hashtbl.mem covered c && not (List.mem c members) then
        violations :=
          {
            oracle = "tree_span";
            detail = Printf.sprintf "non-member %d still receives data" c;
          }
          :: !violations)
    sut.Sut.candidates;
  let vs = !violations in
  Sut.count_check ~oracle:"tree_loop_free"
    (List.exists (fun v -> v.oracle = "tree_loop_free") vs);
  Sut.count_check ~oracle:"tree_span"
    (List.exists (fun v -> v.oracle = "tree_span") vs);
  vs

(* ---- End-to-end delivery: no blackhole, no duplicate ------------------- *)

(* Actually send a data packet and count arrivals.  The caller must
   checkpoint around this (it advances the clock and consumes dedup
   state). *)
let delivery_check (sut : Sut.t) =
  let deliveries = sut.Sut.probe () in
  let per_node = Hashtbl.create 16 in
  List.iter
    (fun (n, _) ->
      Hashtbl.replace per_node n
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_node n)))
    deliveries;
  let reachable = Sut.reachable sut in
  let members = sut.Sut.members () in
  let violations = ref [] in
  List.iter
    (fun m ->
      if reachable.(m) then
        match Option.value ~default:0 (Hashtbl.find_opt per_node m) with
        | 0 ->
            violations :=
              {
                oracle = "no_blackhole";
                detail = Printf.sprintf "member %d received no data" m;
              }
              :: !violations
        | 1 -> ()
        | k ->
            violations :=
              {
                oracle = "no_duplicate";
                detail = Printf.sprintf "member %d received %d copies" m k;
              }
              :: !violations)
    members;
  Hashtbl.iter
    (fun n _ ->
      if not (List.mem n members) then
        violations :=
          {
            oracle = "no_misdelivery";
            detail = Printf.sprintf "non-member %d received data" n;
          }
          :: !violations)
    per_node;
  let vs = !violations in
  List.iter
    (fun oracle ->
      Sut.count_check ~oracle (List.exists (fun v -> v.oracle = oracle) vs))
    [ "no_blackhole"; "no_duplicate"; "no_misdelivery" ];
  vs

(* ---- Combined check ----------------------------------------------------- *)

(* The generic tree check, then the protocol's own oracles from its
   registry row. *)
let structural_check sut =
  let tree = tree_check sut in
  tree @ sut.Sut.oracles sut

(* The probe runs first, so the structural oracles judge the state it
   leaves behind, one probe horizon past the quiescent point.  Every
   recorded result (goldens, counterexample plans) depends on this
   order, so it is sequenced explicitly. *)
let check sut =
  let delivery = delivery_check sut in
  structural_check sut @ delivery
