(* Causal spans: an operation that starts at one simulated instant
   and finishes at another, such as a member's join converging.  Spans are keyed by (name, key) so concurrent
   members never collide; durations are kept exactly (not bucketed)
   so quantiles are precise, and completion order is deterministic
   under a seeded run. *)

type t = {
  open_spans : (string * int, float) Hashtbl.t;
  mutable completed : (string * float) list;
  (* (name, duration), newest first *)
}

let create () = { open_spans = Hashtbl.create 16; completed = [] }

let start t name ~key ~now =
  (* Re-starting an in-flight span abandons the first attempt: the
     newer episode supersedes it (e.g. leave + rejoin before the
     first join ever completed). *)
  Hashtbl.replace t.open_spans (name, key) now

let finish t name ~key ~now =
  let id = (name, key) in
  match Hashtbl.find_opt t.open_spans id with
  | None -> None
  | Some started ->
      Hashtbl.remove t.open_spans id;
      let d = now -. started in
      t.completed <- (name, d) :: t.completed;
      Some d

let drop t name ~key =
  let id = (name, key) in
  if Hashtbl.mem t.open_spans id then begin
    Hashtbl.remove t.open_spans id;
    true
  end
  else false

let drop_all_open t =
  let n = Hashtbl.length t.open_spans in
  Hashtbl.reset t.open_spans;
  n

let open_count t = Hashtbl.length t.open_spans

(* Completed durations in completion order, [?name] filtering to one
   family. *)
let durations ?name t =
  List.rev
    (List.filter_map
       (fun (m, d) -> match name with Some n when m <> n -> None | _ -> Some d)
       t.completed)

type stats = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

(* Exact quantiles (nearest-rank).  Sorted before summing, so the
   result does not depend on the order of [ds]. *)
let stats_of = function
  | [] ->
      { n = 0; mean = nan; min = nan; max = nan; p50 = nan; p95 = nan; p99 = nan }
  | ds ->
      let a = Array.of_list ds in
      Array.sort compare a;
      let n = Array.length a in
      let q p =
        let rank = int_of_float (ceil (p *. float_of_int n)) in
        a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))
      in
      let sum = Array.fold_left ( +. ) 0.0 a in
      {
        n;
        mean = sum /. float_of_int n;
        min = a.(0);
        max = a.(n - 1);
        p50 = q 0.50;
        p95 = q 0.95;
        p99 = q 0.99;
      }

let stats ?name t = stats_of (durations ?name t)

let pp_stats ppf s =
  if s.n = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f"
      s.n s.mean s.min s.p50 s.p95 s.p99 s.max
