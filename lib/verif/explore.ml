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
  check_oracles : bool;  (** disable for pure state-space measurement *)
}

let default_config = {
  depth = 4;
  max_states = 1500;
  seed = 42;
  alphabet = None;
  check_oracles = true;
}

(* Bounded-depth DFS over the scenario alphabet with hash-based
   dedup on canonical state digests.

   One SUT instance serves the whole search: before trying an event
   we checkpoint, afterwards the restore thunk rewinds — branching
   without re-running prefixes, which is the whole point of the
   checkpoint layer (a depth-4 search re-runs each shared prefix
   hundreds of times otherwise).

   The oracle probe mutates the SUT (clock, dedup state), so the
   check runs inside its own checkpoint; exploration continues from
   the un-probed quiescent state.  Each state is keyed on the digest
   quiescence settled on, not digested a second time.

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
  let states = ref 0
  and transitions = ref 0
  and oracle_checks = ref 0 in
  let counterexamples = ref [] and oscillations = ref [] in
  let budget_left () = !states < config.max_states in
  let check_state path =
    if config.check_oracles then begin
      incr oracle_checks;
      let restore = sut.Sut.save () in
      let vs = Oracle.check sut in
      restore ();
      if vs <> [] then begin
        counterexamples :=
          { events = List.rev path; violations = vs } :: !counterexamples;
        false
      end
      else true
    end
    else true
  in
  let rec explore depth path =
    if depth >= config.depth || not (budget_left ()) then ()
    else begin
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
            (match Scenario.quiesce sut with
            | None ->
                Metrics.hot_incr m_quiesce_failures;
                oscillations := List.rev (ev :: path) :: !oscillations
            | Some (_, digest) ->
                if Hashtbl.mem visited digest then Metrics.hot_incr m_dedup
                else begin
                  Hashtbl.replace visited digest ();
                  incr states;
                  Metrics.hot_incr m_states;
                  if check_state (ev :: path) then explore (depth + 1) (ev :: path)
                end);
            restore ()
          end)
        events
    end
  in
  (* The initial quiescent state counts too — and gets checked. *)
  let initial =
    match Scenario.quiesce sut with
    | Some (_, digest) -> digest
    | None -> Sut.state_digest sut
  in
  Hashtbl.replace visited initial ();
  incr states;
  Metrics.hot_incr m_states;
  ignore (check_state []);
  explore 0 [];
  {
    states = !states;
    transitions = !transitions;
    oracle_checks = !oracle_checks;
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
