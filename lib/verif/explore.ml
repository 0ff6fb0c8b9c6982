module Metrics = Obs.Metrics

let m_states = Metrics.hot_counter "verif.states_explored"
let m_transitions = Metrics.hot_counter "verif.transitions"
let m_dedup = Metrics.hot_counter "verif.dedup_hits"
let m_quiesce_failures = Metrics.hot_counter "verif.quiesce_failures"

type counterexample = {
  events : Scenario.event list;  (** the path from the initial state *)
  violations : Oracle.violation list;
}

type outcome = {
  states : int;  (** distinct quiescent states visited *)
  transitions : int;  (** events applied (dedup hits included) *)
  oracle_checks : int;  (** quiescent points the oracles ran at *)
  counterexamples : counterexample list;  (** oracle violations *)
  oscillations : Scenario.event list list;
      (** event paths whose end state never settled within the
          quiescence budget — distinct from oracle violations: the
          oracles only apply at quiescent points, and a limit cycle
          (e.g. REUNITE's periodic dst-starvation teardown) is a
          finding of its own *)
  depth : int;
  seed : int;
}

type config = {
  depth : int;
  max_states : int;
  seed : int;
  alphabet : Scenario.alphabet option;
      (** [None]: {!Scenario.default_alphabet} from the seed *)
}

let default_config = { depth = 4; max_states = 1500; seed = 42; alphabet = None }

(* Bounded-depth DFS over the scenario alphabet with hash-based
   dedup on canonical state digests.

   One SUT instance serves the whole search: before trying an event
   we checkpoint, afterwards the restore thunk rewinds — branching
   without re-running prefixes, which is the whole point of the
   checkpoint layer (a depth-4 search re-runs each shared prefix
   hundreds of times otherwise).

   Every state, the initial one included, goes through
   [Scenario.settle]; the visited set is its [fresh] test, so each
   state is keyed on the digest quiescence settled on and judged once.

   On a violation the path is recorded and the subtree pruned: deeper
   states would blame the same prefix, and the shrinker minimizes
   better than the search can. *)
let run ?(config = default_config) (sut : Sut.t) =
  let alphabet =
    match config.alphabet with
    | Some a -> a
    | None -> Scenario.default_alphabet sut ~seed:config.seed
  in
  let rng = Stats.Rng.create config.seed in
  let visited = Hashtbl.create 1024 in
  let states = ref 0 and transitions = ref 0 in
  let counterexamples = ref [] and oscillations = ref [] in
  let budget_left () = !states < config.max_states in
  let fresh digest =
    if Hashtbl.mem visited digest then begin
      Metrics.hot_incr m_dedup;
      false
    end
    else begin
      Hashtbl.replace visited digest ();
      incr states;
      Metrics.hot_incr m_states;
      true
    end
  in
  (* Settle the state [path] reached; true when it is new and clean,
     so worth expanding. *)
  let visit path =
    match Scenario.settle ~fresh sut with
    | Scenario.Unsettled ->
        Metrics.hot_incr m_quiesce_failures;
        oscillations := List.rev path :: !oscillations;
        false
    | Scenario.Seen -> false
    | Scenario.Judged [] -> true
    | Scenario.Judged vs ->
        counterexamples :=
          { events = List.rev path; violations = vs } :: !counterexamples;
        false
  in
  let rec explore depth path =
    if depth < config.depth && budget_left () then begin
      (* A fresh shuffle per expansion: the visit order (hence which
         states fit in the budget) is seed-determined but not biased
         toward the alphabet's construction order. *)
      let events = Array.of_list (Scenario.enabled sut alphabet) in
      Stats.Rng.shuffle rng events;
      Array.iter
        (fun ev ->
          if budget_left () then begin
            let restore = sut.Sut.save () in
            incr transitions;
            Metrics.hot_incr m_transitions;
            Scenario.apply sut ev;
            if visit (ev :: path) then explore (depth + 1) (ev :: path);
            restore ()
          end)
        events
    end
  in
  if visit [] then explore 0 [];
  {
    states = !states;
    transitions = !transitions;
    (* [settle] judges every state [fresh] accepts *)
    oracle_checks = !states;
    counterexamples = List.rev !counterexamples;
    oscillations = List.rev !oscillations;
    depth = config.depth;
    seed = config.seed;
  }

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>states explored: %d@,transitions: %d@,oracle checks: %d@,\
     counterexamples: %d@,oscillations: %d@,depth: %d, seed: %d@]"
    o.states o.transitions o.oracle_checks
    (List.length o.counterexamples)
    (List.length o.oscillations)
    o.depth o.seed
