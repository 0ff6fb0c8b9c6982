(* Exact summaries of durations over simulated time, such as a
   member's join latency or a receiver's time to repair.  Durations
   are kept exactly (not bucketed), so quantiles are precise. *)

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

let pp_stats ppf s =
  if s.n = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f"
      s.n s.mean s.min s.p50 s.p95 s.p99 s.max
