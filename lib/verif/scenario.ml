module G = Topology.Graph
module P = Fault.Plan

type event =
  | Join of int
  | Leave of int
  | Link_down of int * int
  | Link_up of int * int
  | Crash of int
  | Restart of int
  | Loss_burst of float
  | Reorder_burst of float * float
      (** bounded reordering (window, prob) for two refresh periods,
          then clear — control messages overtake each other *)
  | Dup_burst of float
      (** duplication probability for two refresh periods, then clear *)
  | Partition_cycle of int list
      (** named partition of the island, reconverge, one t2 of
          isolation, heal, reconverge — a self-contained cycle so the
          explorer never carries an open partition between states *)
  | Age  (** let soft state decay for one t2 without stimulus *)

let pp_event fmt = function
  | Join m -> Format.fprintf fmt "join %d" m
  | Leave m -> Format.fprintf fmt "leave %d" m
  | Link_down (u, v) -> Format.fprintf fmt "link-down %d-%d" u v
  | Link_up (u, v) -> Format.fprintf fmt "link-up %d-%d" u v
  | Crash n -> Format.fprintf fmt "crash %d" n
  | Restart n -> Format.fprintf fmt "restart %d" n
  | Loss_burst r -> Format.fprintf fmt "loss-burst %g" r
  | Reorder_burst (w, p) -> Format.fprintf fmt "reorder w=%g %g" w p
  | Dup_burst p -> Format.fprintf fmt "dup-burst %g" p
  | Partition_cycle island ->
      Format.fprintf fmt "partition-cycle [%s]"
        (String.concat "," (List.map string_of_int island))
  | Age -> Format.fprintf fmt "age"

let pp_events fmt events =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
       pp_event)
    events

(* ---- Alphabet ----------------------------------------------------------- *)

type alphabet = {
  joins : int list;  (** candidate members to churn *)
  links : (int * int) list;  (** links to fail/restore *)
  crashes : int list;  (** routers to crash/restart *)
  islands : int list list;  (** partition-cycle islands *)
}

(* Every alphabet carries the same three delivery bursts and [Age]. *)
let loss_burst = 0.3
let reorder_burst = (2.0, 0.3)
let dup_burst = 0.3

(* A deterministic, seeded slice of the SUT's fault surface: eight
   churnable members, five failable core links (never host access
   links — cutting a member's only link just excuses it from every
   oracle), two crash candidates.  Small alphabets keep the
   bounded-depth state space dense enough to revisit states, which is
   where the dedup pays off. *)
let default_alphabet (sut : Sut.t) ~seed =
  let rng = Stats.Rng.create seed in
  let take n xs =
    let a = Array.of_list xs in
    Stats.Rng.shuffle rng a;
    Array.to_list (Array.sub a 0 (min n (Array.length a)))
  in
  let hosts = G.hosts sut.Sut.graph in
  let core_links =
    List.filter_map
      (fun (l : G.link) ->
        if List.mem l.G.u hosts || List.mem l.G.v hosts then None
        else Some (l.G.u, l.G.v))
      (G.links sut.Sut.graph)
  in
  let routers =
    List.filter
      (fun n -> (not (List.mem n hosts)) && n <> sut.Sut.source)
      (List.init (G.node_count sut.Sut.graph) Fun.id)
  in
  {
    joins = List.sort compare (take 8 sut.Sut.candidates);
    links = List.sort compare (take 5 core_links);
    crashes = List.sort compare (take 2 routers);
    (* Singleton candidate-host islands: a member (or would-be
       member) loses all connectivity for a t2, then gets it back —
       the adversarial shape behind the mutual-capture fix. *)
    islands =
      List.map (fun h -> [ h ]) (take 1 sut.Sut.candidates)
      |> List.sort compare;
  }

(* Events applicable from the current state: churn is phrased
   absolutely (join only non-members, leave only members), topology
   events only in the direction that flips a stored fact.  This keeps
   the alphabet's branching factor honest and every event meaningful
   — though [apply] itself tolerates no-ops, which ddmin relies on. *)
let enabled (sut : Sut.t) (a : alphabet) =
  let members = sut.Sut.members () in
  let joins =
    List.filter_map
      (fun m -> if List.mem m members then None else Some (Join m))
      a.joins
  and leaves =
    List.filter_map
      (fun m -> if List.mem m members then Some (Leave m) else None)
      a.joins
  and link_events =
    let failed = sut.Sut.failed_links () in
    List.map
      (fun (u, v) ->
        if List.mem (min u v, max u v) failed then Link_up (u, v)
        else Link_down (u, v))
      a.links
  and crash_events =
    List.map
      (fun n -> if sut.Sut.node_up n then Crash n else Restart n)
      a.crashes
  and bursts =
    let w, p = reorder_burst in
    [ Loss_burst loss_burst; Reorder_burst (w, p); Dup_burst dup_burst ]
  and partition_events = List.map (fun i -> Partition_cycle i) a.islands in
  joins @ leaves @ link_events @ crash_events @ bursts @ partition_events
  @ [ Age ]

(* ---- Applying events ---------------------------------------------------- *)

(* The one meaning of an event: its timed directives, offsets from the
   moment it starts, and its span — how long it occupies the SUT.
   Topology events reconverge one detection lag after the change;
   delivery bursts last two refresh periods, then clear; a partition
   cycle holds its cut for one t2 between the two reconvergences. *)
let directives (sut : Sut.t) ev =
  let lag = P.detection_lag and len = 2.0 *. sut.Sut.control_period in
  let topology change = ([ (0.0, change); (lag, P.Reconverge) ], lag)
  and burst on off = ([ (0.0, on); (len, off) ], len) in
  match ev with
  | Join m -> ([ (0.0, P.Join { member = m }) ], 0.0)
  | Leave m -> ([ (0.0, P.Leave { member = m }) ], 0.0)
  | Link_down (u, v) -> topology (P.Link_down { u; v })
  | Link_up (u, v) -> topology (P.Link_up { u; v })
  | Crash n -> topology (P.Crash { node = n })
  | Restart n -> topology (P.Restart { node = n })
  | Loss_burst rate -> burst (P.Loss_all { rate }) (P.Loss_all { rate = 0.0 })
  | Reorder_burst (window, prob) ->
      burst
        (P.Reorder { window; prob })
        (P.Reorder { window = 0.0; prob = 0.0 })
  | Dup_burst prob -> burst (P.Duplicate { prob }) (P.Duplicate { prob = 0.0 })
  | Partition_cycle island ->
      let heal = lag +. sut.Sut.t2 in
      ( [
          (0.0, P.Partition_named { name = "verif"; island });
          (lag, P.Reconverge);
          (heal, P.Heal_named { name = "verif" });
          (heal +. lag, P.Reconverge);
        ],
        heal +. lag )
  | Age -> ([], sut.Sut.t2)

(* The one stepper: run to [t0 +. at], inject, for each directive in
   time order, then run on to [t0 +. span]. *)
let play (sut : Sut.t) directives ~span =
  let t0 = sut.Sut.now () in
  let advance at =
    let dt = t0 +. at -. sut.Sut.now () in
    if dt > 0.0 then sut.Sut.run_for dt
  in
  List.iter
    (fun (at, action) ->
      advance at;
      sut.Sut.inject action)
    directives;
  advance span

(* Every directive is a no-op when it does not apply (subscribe is
   idempotent, a link fact is a set member, crash/restart guard) — ddmin
   replays arbitrary subsequences, so this must never raise. *)
let apply sut ev =
  let ds, span = directives sut ev in
  play sut ds ~span

(* ---- Quiescence --------------------------------------------------------- *)

(* Run refresh windows until the canonical digest is stable across
   TWO consecutive windows (three equal samples).  Decaying entries
   keep crossing digest buckets until they die, so stability
   genuinely means settled; the double window guards against the
   one-window coincidence where a stray in-flight refresh (e.g. the
   last join sent just before a leave) shifts a deadline by exactly
   one window's worth of decay, making two successive samples digest
   equal mid-decay.  Budget: 4*t2 of simulated time — if the digest
   still changes then, the protocol is oscillating (itself
   reportable).  The settled digest comes back with the elapsed time,
   so callers keying on it need not digest the state again. *)
let quiesce ?(budget_factor = 4.0) (sut : Sut.t) =
  let budget = budget_factor *. sut.Sut.t2 in
  let window = sut.Sut.control_period in
  let start = sut.Sut.now () in
  let rec go stable prev =
    sut.Sut.run_for window;
    let d = Sut.state_digest sut in
    let elapsed = sut.Sut.now () -. start in
    let stable = if String.equal d prev then stable + 1 else 0 in
    if stable >= 2 then Some (elapsed, d)
    else if elapsed > budget then None
    else go stable d
  in
  go 0 (Sut.state_digest sut)

(* ---- Settle, then judge ------------------------------------------------ *)

type point = Unsettled | Seen | Judged of Oracle.violation list

(* The one place a state is judged.  The delivery probe mutates the
   SUT (clock, dedup state), so the oracles run inside a checkpoint
   and the caller continues from the un-probed settled state. *)
let settle ?(fresh = fun _ -> true) (sut : Sut.t) =
  match quiesce sut with
  | None -> Unsettled
  | Some (_, digest) when not (fresh digest) -> Seen
  | Some _ ->
      let restore = sut.Sut.save () in
      let vs = Oracle.check sut in
      restore ();
      Judged vs

(* ---- One timeline: running events, replaying plans --------------------- *)

(* The explorer's timeline for one path (see the interface); the log
   stamps each injected directive with its offset from the start. *)
let run (sut : Sut.t) events =
  let t0 = sut.Sut.now () and log = ref [] in
  let recording =
    {
      sut with
      Sut.inject =
        (fun action ->
          log := (sut.Sut.now () -. t0, action) :: !log;
          sut.Sut.inject action);
    }
  in
  let rec judge events =
    match (settle sut, events) with
    | Judged [], ev :: rest ->
        apply recording ev;
        judge rest
    | Judged vs, _ -> vs
    | (Unsettled | Seen), _ -> []
  in
  let vs = judge events in
  (P.make (List.rev !log), vs)

(* Replay a plan against a live SUT, honoring directive times, then
   settle and judge the end state.  This is what the golden
   counterexample fixtures go through. *)
let replay_plan (sut : Sut.t) plan =
  play sut ~span:0.0
    (List.map
       (fun (d : P.directive) -> (d.P.at, d.P.action))
       (P.directives plan));
  match settle sut with Judged vs -> vs | Unsettled | Seen -> []
