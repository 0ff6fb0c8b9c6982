type t = {
  bounds : float array;
  counts : int array; (* one per bound, plus counts.(n) = overflow *)
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
  mutable nans : int;
}

let default_buckets =
  [| 0.5; 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0; 1000.0; 2000.0; 5000.0 |]

let validate bounds =
  if Array.length bounds = 0 then
    invalid_arg "Histo.create: need at least one bucket bound";
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg "Histo.create: bounds must be strictly increasing")
    bounds

let create ?(buckets = default_buckets) () =
  validate buckets;
  {
    bounds = Array.copy buckets;
    counts = Array.make (Array.length buckets + 1) 0;
    count = 0;
    sum = 0.0;
    min = nan;
    max = nan;
    nans = 0;
  }

let bounds t = Array.copy t.bounds

let observe t v =
  let n = Array.length t.bounds in
  if Float.is_nan v then
    (* NaN compares false against every bound, so the scan below would
       file it in the first bucket — and one NaN would poison sum, min
       and max forever.  Quarantine it in its own tally so it also
       cannot dilute the mean or shift quantile ranks. *)
    t.nans <- t.nans + 1
  else begin
    let i = ref 0 in
    while !i < n && v > t.bounds.(!i) do
      incr i
    done;
    t.counts.(!i) <- t.counts.(!i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    (* min is the "no finite sample yet" sentinel: reset/create leave
       it NaN and NaN observations never reach this branch. *)
    if Float.is_nan t.min then begin
      t.min <- v;
      t.max <- v
    end
    else begin
      if v < t.min then t.min <- v;
      if v > t.max then t.max <- v
    end
  end

let count t = t.count
let sum t = t.sum

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min <- nan;
  t.max <- nan;
  t.nans <- 0

(* Bucket-wise merge, the registry-combination primitive for parallel
   sweeps.  Commutative and associative on every field except the
   float [sum], which is why callers merge per-run registries in run
   order — the same order a sequential sweep would have accumulated
   observations. *)
let merge dst src =
  if dst.bounds <> src.bounds then
    invalid_arg "Histo.merge: bucket bounds differ";
  for i = 0 to Array.length dst.counts - 1 do
    dst.counts.(i) <- dst.counts.(i) + src.counts.(i)
  done;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  dst.nans <- dst.nans + src.nans;
  (* NaN min/max is the "no finite sample yet" sentinel; [Float.min]
     would propagate it over real data, so combine explicitly. *)
  if Float.is_nan dst.min then begin
    dst.min <- src.min;
    dst.max <- src.max
  end
  else if not (Float.is_nan src.min) then begin
    if src.min < dst.min then dst.min <- src.min;
    if src.max > dst.max then dst.max <- src.max
  end

type snapshot = {
  buckets : (float * int) list;
  overflow : int;
  count : int;
  sum : float;
  min : float;
  max : float;
  nans : int;
}

let snapshot t =
  {
    buckets =
      Array.to_list (Array.mapi (fun i b -> (b, t.counts.(i))) t.bounds);
    overflow = t.counts.(Array.length t.bounds);
    count = t.count;
    sum = t.sum;
    min = t.min;
    max = t.max;
    nans = t.nans;
  }

(* Interpolated quantile from the bucket counts.  The rank'th
   observation (1-based, rank = ceil(q * count)) is located in its
   bucket, then linearly interpolated between the bucket's bounds —
   the classic fixed-bucket estimate, exact at bucket edges.  The
   estimate is clamped to the observed [min, max] so a handful of
   samples in a wide bucket cannot produce a value outside the data.
   Ranks landing in the overflow bucket return [max] (the top tail is
   only ever reported as "at least max").

   The edge cases are pinned to well-defined values: an empty
   histogram reports 0 for every quantile (not NaN, which would
   poison downstream arithmetic), and a histogram whose observations
   are all equal — in particular a single observation — reports
   exactly that value, with no interpolation artifacts. *)
let quantile (s : snapshot) q =
  if Float.is_nan q then nan
  else if s.count = 0 then 0.0
  else if s.min = s.max then s.min
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = Float.max 1.0 (Float.round (q *. float_of_int s.count)) in
    let rec locate lower cum = function
      | [] -> s.max (* overflow bucket *)
      | (upper, c) :: rest ->
          let cum' = cum + c in
          if float_of_int cum' >= rank && c > 0 then begin
            let frac =
              (rank -. float_of_int cum) /. float_of_int c
            in
            let lo = if Float.is_nan lower then Float.min s.min upper else lower in
            let v = lo +. (frac *. (upper -. lo)) in
            Float.max s.min (Float.min s.max v)
          end
          else locate upper cum' rest
    in
    locate nan 0 s.buckets
  end

let pp_snapshot ppf s =
  if s.count = 0 then begin
    Format.fprintf ppf "empty";
    if s.nans > 0 then Format.fprintf ppf " nan:%d" s.nans
  end
  else begin
    Format.fprintf ppf
      "count=%d mean=%.3f min=%.3f max=%.3f p50=%.3f p95=%.3f p99=%.3f"
      s.count
      (s.sum /. float_of_int s.count)
      s.min s.max (quantile s 0.50) (quantile s 0.95) (quantile s 0.99);
    List.iter
      (fun (b, c) -> if c > 0 then Format.fprintf ppf " le%g:%d" b c)
      s.buckets;
    if s.overflow > 0 then Format.fprintf ppf " inf:%d" s.overflow;
    if s.nans > 0 then Format.fprintf ppf " nan:%d" s.nans
  end
