(* Always-on invariant monitors: the structural oracles run as cheap
   periodic health probes inside an ordinary (non-model-checked) run.

   Transients are expected — a leaving member's state ages out over
   t2, a repaired link re-fills tables over a couple of control
   periods — so a single failing observation proves nothing.  A
   violation is only confirmed after [confirm] consecutive probes see
   it.  With the period at the SUT's t2 and confirm = 3, any
   transient bounded by the protocol's own recovery budget (2 * t2)
   can be seen at most twice in a row, while a genuine invariant
   break (a forwarding loop that survives fusion, a permanently
   blackholed member) persists and crosses the threshold. *)

module Wheel = Eventsim.Wheel

let m_checks = Obs.Metrics.hot_counter "obs.monitor.checks"

let m_observations = Obs.Metrics.hot_counter "obs.monitor.observations"

let m_violations = Obs.Metrics.hot_counter "obs.monitor.violations"

type confirmed = { time : float; violation : Oracle.violation }

let confirm = 3

type t = {
  sut : Sut.t;
  timer : Wheel.entry;
  streaks : (string, int) Hashtbl.t; (* oracle:detail -> consecutive count *)
  mutable confirmed : confirmed list; (* newest first *)
  mutable checks : int;
}

let key (v : Oracle.violation) = v.Oracle.oracle ^ ":" ^ v.Oracle.detail

let probe t =
  t.checks <- t.checks + 1;
  Obs.Metrics.hot_incr m_checks;
  let violations = Oracle.structural_check t.sut in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (v : Oracle.violation) ->
      let k = key v in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        Obs.Metrics.hot_incr m_observations;
        let streak =
          match Hashtbl.find_opt t.streaks k with Some n -> n + 1 | None -> 1
        in
        Hashtbl.replace t.streaks k streak;
        (* Fire exactly once, when the streak crosses the threshold;
           the violation stays counted while it persists. *)
        if streak = confirm then begin
          let time = t.sut.Sut.now () in
          t.confirmed <- { time; violation = v } :: t.confirmed;
          Obs.Metrics.hot_incr m_violations;
          Obs.Trace.event t.sut.Sut.trace ~time ~node:t.sut.Sut.source
            (Obs.Event.Invariant_violation
               { oracle = v.Oracle.oracle; detail = v.Oracle.detail })
        end
      end)
    violations;
  (* Streaks not seen this probe are broken: the transient cleared. *)
  let stale =
    Hashtbl.fold
      (fun k _ acc -> if Hashtbl.mem seen k then acc else k :: acc)
      t.streaks []
  in
  List.iter (Hashtbl.remove t.streaks) stale

let attach (sut : Sut.t) =
  let period = sut.Sut.t2 in
  let rec t =
    lazy
      {
        sut;
        timer =
          Wheel.every
            (Wheel.create ~tag:"verif.monitor" sut.Sut.engine)
            ~start:period ~period
            (fun () -> probe (Lazy.force t));
        streaks = Hashtbl.create 8;
        confirmed = [];
        checks = 0;
      }
  in
  Lazy.force t

let stop t = Wheel.stop t.timer
let checks t = t.checks
let violations t = List.rev t.confirmed
let violation_count t = List.length t.confirmed

let pp_summary ppf t =
  Format.fprintf ppf "monitor[%s]: %d checks, %d confirmed violation%s"
    t.sut.Sut.proto t.checks (violation_count t)
    (if violation_count t = 1 then "" else "s");
  List.iter
    (fun { time; violation } ->
      Format.fprintf ppf "@.  t=%.0f %a" time Oracle.pp_violation violation)
    (violations t)
