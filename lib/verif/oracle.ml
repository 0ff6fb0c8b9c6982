module G = Topology.Graph
module R = Routing.Table

type violation = { oracle : string; detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "%s: %s" v.oracle v.detail

(* Per-oracle check/violation counters, fetched from the current
   domain's registry on demand so the metric namespace only contains
   oracles that actually ran.  No memo table: a process-global cache
   here would both leak across scoped registries and race across
   domains, and oracle checks only run at quiescent points, where a
   registry lookup is noise. *)
let count ~oracle hit =
  let t = Obs.Metrics.default () in
  Obs.Metrics.incr
    (Obs.Metrics.counter t (Printf.sprintf "verif.oracle.%s.checks" oracle));
  if hit then
    Obs.Metrics.incr
      (Obs.Metrics.counter t
         (Printf.sprintf "verif.oracle.%s.violations" oracle))

(* ---- Reachability over the current (faulty) topology ------------------- *)

(* BFS over operational links between up nodes: the ground truth the
   span oracle compares the tree against.  Members the topology has
   cut off are excused; everyone else must be covered. *)
let reachable_set (sut : Sut.t) =
  let g = sut.Sut.graph in
  let n = G.node_count g in
  let seen = Array.make n false in
  let q = Queue.create () in
  if sut.Sut.node_up sut.Sut.source then begin
    seen.(sut.Sut.source) <- true;
    Queue.add sut.Sut.source q
  end;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, lid) ->
        if (not seen.(v)) && (G.link g lid).G.up && sut.Sut.node_up v then begin
          seen.(v) <- true;
          Queue.add v q
        end)
      (G.adjacency g u)
  done;
  seen

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
  let reachable = reachable_set sut in
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
  count ~oracle:"tree_loop_free"
    (List.exists (fun v -> v.oracle = "tree_loop_free") vs);
  count ~oracle:"tree_span" (List.exists (fun v -> v.oracle = "tree_span") vs);
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
  let reachable = reachable_set sut in
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
      count ~oracle (List.exists (fun v -> v.oracle = oracle) vs))
    [ "no_blackhole"; "no_duplicate"; "no_misdelivery" ];
  vs

(* ---- HBH-specific oracles ---------------------------------------------- *)

(* "The first join reaches the source": whenever at least one
   reachable member exists, the source must hold forwarding state —
   HBH's join interception must never strand all receivers below a
   router that cannot reach the source (Section 3.2). *)
let hbh_first_join (sut : Sut.t) =
  if sut.Sut.proto <> "hbh" then []
  else begin
    let reachable = reachable_set sut in
    let has_member = List.exists (fun m -> reachable.(m)) (sut.Sut.members ()) in
    let bad = has_member && not (sut.Sut.source_has_state ()) in
    count ~oracle:"hbh_first_join" bad;
    if bad then
      [
        {
          oracle = "hbh_first_join";
          detail = "members exist but the source holds no forwarding state";
        };
      ]
    else []
  end

(* "Fusion places the branching router on the unicast path": every
   branching router actively emitting tree messages must lie on the
   unicast path between the source and some current member — in
   either direction, since joins refresh state along reverse paths
   while fusion installs it along forward paths, and the two can
   differ under asymmetric link costs. *)
let hbh_branch_on_path (sut : Sut.t) =
  if sut.Sut.proto <> "hbh" then []
  else begin
    let members = sut.Sut.members () in
    let on_some_path b =
      List.exists
        (fun m ->
          (R.reachable sut.Sut.table sut.Sut.source m
          && List.mem b (R.path sut.Sut.table sut.Sut.source m))
          || (R.reachable sut.Sut.table m sut.Sut.source
             && List.mem b (R.path sut.Sut.table m sut.Sut.source)))
        members
    in
    let stray =
      List.filter_map
        (fun (b, _) ->
          if sut.Sut.node_up b && not (on_some_path b) then Some b else None)
        (sut.Sut.branch_nodes ())
    in
    count ~oracle:"hbh_branch_on_path" (stray <> []);
    List.map
      (fun b ->
        {
          oracle = "hbh_branch_on_path";
          detail =
            Printf.sprintf
              "branching router %d is on no source-member unicast path" b;
        })
      stray
  end

(* ---- HPIM-DM-specific oracles ------------------------------------------- *)

(* "Exactly one assert winner per link": at a quiescent point, both
   endpoints of every constituted router-router link must agree on
   who wins the link's assert election — disagreement means either
   both sides would feed data onto the link (duplicates) or neither
   would (a blackhole the hard state cannot heal by refresh). *)
let hpim_assert_unique (sut : Sut.t) links =
  if sut.Sut.proto <> "hpim-dm" then []
  else begin
    let bad =
      List.filter_map
        (fun (l : Sut.router_link) ->
          match l.Sut.assert_view with
          | Some (u_view, v_view) when u_view <> v_view ->
              Some (l.Sut.u, l.Sut.v, u_view, v_view)
          | Some _ | None -> None)
        links
    in
    count ~oracle:"hpim_assert_unique" (bad <> []);
    List.map
      (fun (u, v, u_view, v_view) ->
        {
          oracle = "hpim_assert_unique";
          detail =
            Printf.sprintf
              "link %d-%d: %d believes %d wins the assert, %d believes %d wins"
              u v u
              (if u_view then u else v)
              v
              (if v_view then u else v);
        })
      bad
  end

(* "No data forwarding from assert losers": every data-plane fan-out
   edge toward a router must originate from the endpoint that wins
   that link's election in its own view (self-consistency between the
   rule the data plane forwards with and a node's election state). *)
let hpim_assert_losers (sut : Sut.t) links =
  if sut.Sut.proto <> "hpim-dm" then []
  else begin
    (* [(from, dst)] -> [from]'s own belief that it wins that link. *)
    let wins = Hashtbl.create 64 in
    List.iter
      (fun (l : Sut.router_link) ->
        match l.Sut.assert_view with
        | Some (u_view, v_view) ->
            Hashtbl.replace wins (l.Sut.u, l.Sut.v) u_view;
            Hashtbl.replace wins (l.Sut.v, l.Sut.u) (not v_view)
        | None -> ())
      links;
    let winner_view ~from ~dst = Hashtbl.find_opt wins (from, dst) in
    let is_router n = G.multicast_router sut.Sut.graph n || n = sut.Sut.source in
    let bad = ref [] in
    for n = 0 to G.node_count sut.Sut.graph - 1 do
      List.iter
        (fun d ->
          if is_router d then
            match winner_view ~from:n ~dst:d with
            | Some true | None -> ()
            | Some false -> bad := (n, d) :: !bad)
        (sut.Sut.data_targets n)
    done;
    count ~oracle:"hpim_assert_losers" (!bad <> []);
    List.map
      (fun (n, d) ->
        {
          oracle = "hpim_assert_losers";
          detail =
            Printf.sprintf
              "router %d forwards data to %d despite losing that link's assert"
              n d;
        })
      (List.rev !bad)
  end

(* "Neighbor tables are consistent at quiescence": across every up
   link between up routers, hello liveness must be mutual and each
   side's recorded generation ID must match the neighbor's actual
   current one — a one-sided or stale view means the hard state the
   two routers hold about each other has silently diverged. *)
let hpim_nbr_consistency (sut : Sut.t) links =
  if sut.Sut.proto <> "hpim-dm" then []
  else begin
    let bad =
      List.filter
        (fun (l : Sut.router_link) ->
          not (l.Sut.u_sees_v && l.Sut.v_sees_u && l.Sut.genid_ok))
        links
    in
    count ~oracle:"hpim_nbr_consistency" (bad <> []);
    List.map
      (fun { Sut.u; v; u_sees_v; v_sees_u; genid_ok; assert_view = _ } ->
        {
          oracle = "hpim_nbr_consistency";
          detail =
            Printf.sprintf
              "link %d-%d: liveness %d->%d=%b %d->%d=%b, generation IDs %s" u v
              u v u_sees_v v u v_sees_u
              (if genid_ok then "consistent" else "diverged");
        })
      bad
  end

(* ---- Combined check ----------------------------------------------------- *)

(* HPIM-DM's link rows are read once per check and shared by its three
   oracles. *)
let structural_check sut =
  let links = sut.Sut.router_links () in
  let tree = tree_check sut in
  let first_join = hbh_first_join sut in
  let branch = hbh_branch_on_path sut in
  let unique = hpim_assert_unique sut links in
  let losers = hpim_assert_losers sut links in
  let nbrs = hpim_nbr_consistency sut links in
  tree @ first_join @ branch @ unique @ losers @ nbrs

(* The probe runs first, so the structural oracles judge the state it
   leaves behind, one probe horizon past the quiescent point.  Every
   recorded result (goldens, counterexample plans) depends on this
   order, so it is sequenced explicitly. *)
let check sut =
  let delivery = delivery_check sut in
  structural_check sut @ delivery
