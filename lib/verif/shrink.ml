(* Delta-debugging (ddmin) over event sequences.

   The test runs a candidate subsequence through [Scenario.run] on a
   FRESH SUT (the caller supplies the factory) — not a checkpoint — so
   the minimized sequence reproduces from a cold start on the
   explorer's own timeline, which is what makes its recorded plan a
   committable golden fixture.  A candidate passes when the run
   violates the same oracle as the original counterexample (any
   detail: shrinking may change which member or router exhibits the
   bug, the property class must survive). *)

let m_shrink_tests = Obs.Metrics.hot_counter "verif.shrink.replays"

let reproduces ~make_sut ~oracles events =
  Obs.Metrics.hot_incr m_shrink_tests;
  let _, vs = Scenario.run (make_sut ()) events in
  List.exists (fun (v : Oracle.violation) -> List.mem v.Oracle.oracle oracles) vs

(* Classic ddmin: try removing chunks at a falling granularity until
   1-minimal (no single event can be removed).

   With [jobs > 1] the complements of one granularity level are probed
   concurrently and the success at the LOWEST index wins — exactly the
   candidate the sequential left-to-right scan would have committed to,
   so the minimized sequence is independent of [jobs].  Parallel probing
   trades wasted replays (candidates past the first success still run)
   for wall time; only the [verif.shrink.replays] tally can differ. *)
let ddmin ?(jobs = 1) ~test events =
  let try_complements parts =
    if jobs <= 1 then
      let rec go before = function
        | [] -> None
        | c :: after ->
            let candidate = List.concat (List.rev_append before after) in
            if candidate <> [] && test candidate then Some candidate
            else go (c :: before) after
      in
      go [] parts
    else begin
      let candidate i =
        List.concat (List.filteri (fun j _ -> j <> i) parts)
      in
      let results =
        Stats.Parallel.map ~jobs (List.length parts) (fun i ->
            let c = candidate i in
            if c <> [] && test c then Some c else None)
      in
      Array.fold_left
        (fun acc r -> match acc with Some _ -> acc | None -> r)
        None results
    end
  in
  let rec go events n =
    let len = List.length events in
    if len <= 1 then events
    else begin
      let chunk = max 1 (len / n) in
      let rec chunks i acc xs =
        match xs with
        | [] -> List.rev acc
        | _ ->
            let take = min chunk (List.length xs) in
            let rec split k xs =
              if k = 0 then ([], xs)
              else
                match xs with
                | [] -> ([], [])
                | x :: rest ->
                    let a, b = split (k - 1) rest in
                    (x :: a, b)
            in
            let c, rest = split take xs in
            chunks (i + 1) (c :: acc) rest
      in
      let parts = chunks 0 [] events in
      (* Complements first (drop one chunk): greatest progress per
         replay when most events are irrelevant. *)
      match try_complements parts with
      | Some candidate -> go candidate (max 2 (n - 1))
      | None ->
          if chunk <= 1 then events (* 1-minimal *)
          else go events (min len (2 * n))
    end
  in
  if test events then go events 2 else events

let minimize ?jobs ~make_sut (cx : Explore.counterexample) =
  let oracles =
    List.sort_uniq compare
      (List.map (fun (v : Oracle.violation) -> v.Oracle.oracle) cx.Explore.violations)
  in
  let test events = reproduces ~make_sut ~oracles events in
  ddmin ?jobs ~test cx.Explore.events
