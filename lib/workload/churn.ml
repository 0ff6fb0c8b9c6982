type event = Join of int | Leave of int

type schedule = (float * event) list

module Iset = Set.Make (Int)

(* A channel draws over the [n] slots of the sorted, distinct candidate
   array.  [taken] is a Fenwick tree (binary indexed counts) of its
   members, 1-based: entry [i] counts the members among slots
   [i - lowbit i .. i - 1].  A join finds the k-th free slot in one
   descent and marks it, a leave unmarks it, each O(log n).  Every
   channel of a {!multi} shares one array, cleared when a channel
   starts. *)
let mark taken s delta =
  let n = Array.length taken - 1 in
  let i = ref (s + 1) in
  while !i <= n do
    taken.(!i) <- taken.(!i) + delta;
    i := !i + (!i land - !i)
  done

(* The [k]-th free slot, 0-based in ascending slot order: the descent
   keeps the largest prefix holding at most [k] free slots, so the slot
   after it is the one.  [top] is the largest power of two <= n. *)
let kth_free taken top k =
  let n = Array.length taken - 1 in
  let pos = ref 0 and rem = ref k and step = ref top in
  while !step > 0 do
    let next = !pos + !step in
    if next <= n then begin
      let free = !step - taken.(next) in
      if free <= !rem then begin
        pos := next;
        rem := !rem - free
      end
    end;
    step := !step lsr 1
  done;
  !pos

(* Pending leaves, (time, slot), earliest first. *)
module Due = Set.Make (struct
  type t = float * int

  let compare (t1, s1) (t2, s2) =
    match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end)

(* One channel's schedule over [slots] (ascending, distinct).  Joins
   arrive as a Poisson process; an arrival first retires the leaves due
   by its time, then, unless every candidate is a member (the arrival is
   lost, and draws nothing), makes the one draw [Rng.int rng nfree] and
   takes the free candidate at that position in ascending order, then
   draws its hold. *)
let draw taken slots rng ~rate ~mean_hold ~horizon =
  if rate <= 0.0 then invalid_arg "Churn.poisson: rate must be positive";
  let n = Array.length slots in
  Array.fill taken 0 (n + 1) 0;
  let top =
    let p = ref 1 in
    while !p <= n do
      p := 2 * !p
    done;
    !p / 2
  in
  let nfree = ref n and due = ref Due.empty and events = ref [] in
  let rec retire_until t =
    match Due.min_elt_opt !due with
    | Some ((lt, s) as leave) when lt <= t ->
        due := Due.remove leave !due;
        mark taken s (-1);
        incr nfree;
        events := (lt, Leave slots.(s)) :: !events;
        retire_until t
    | _ -> ()
  in
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t +. Stats.Rng.exponential rng (1.0 /. rate);
    if !t > horizon then continue := false
    else begin
      retire_until !t;
      if !nfree > 0 then begin
        let s = kth_free taken top (Stats.Rng.int rng !nfree) in
        mark taken s 1;
        decr nfree;
        events := (!t, Join slots.(s)) :: !events;
        let lt = !t +. Stats.Rng.exponential rng mean_hold in
        if lt <= horizon then due := Due.add (lt, s) !due
      end
    end
  done;
  retire_until horizon;
  List.sort compare !events

let slots_of candidates = Array.of_list (List.sort_uniq Int.compare candidates)

let poisson rng ~candidates ~rate ~mean_hold ~horizon =
  let slots = slots_of candidates in
  draw (Array.make (Array.length slots + 1) 0) slots rng ~rate ~mean_hold
    ~horizon

(* Multi-channel merge: channel [c]'s stream comes from its own
   derived rng, so the merged schedule is order-free deterministic —
   byte-identical however the channels are processed, the property
   the parallel sweeps lean on.  The stable sort keyed on (time,
   channel) preserves each channel's own event order at ties, so
   projecting the merge back onto one channel returns exactly that
   channel's standalone schedule. *)
let multi ~seed ~channels ~candidates ~rate ~popularity ~mean_hold ~horizon =
  if channels < 1 then invalid_arg "Churn.multi: need channels >= 1";
  if Zipf.n popularity <> channels then
    invalid_arg "Churn.multi: popularity size must match channel count";
  let slots = slots_of candidates in
  let taken = Array.make (Array.length slots + 1) 0 in
  let streams =
    List.init channels (fun c ->
        let rng = Stats.Rng.derive ~seed ~index:c in
        let rate_c = rate *. Zipf.pmf popularity c in
        if rate_c <= 0.0 then []
        else
          draw taken slots rng ~rate:rate_c ~mean_hold ~horizon
          |> List.map (fun (t, ev) -> (t, c, ev)))
  in
  List.stable_sort
    (fun (t1, c1, _) (t2, c2, _) ->
      match Float.compare t1 t2 with 0 -> Int.compare c1 c2 | d -> d)
    (List.concat streams)

let members_at schedule time =
  List.fold_left
    (fun acc (t, ev) ->
      if t > time then acc
      else
        match ev with
        | Join r -> Iset.add r acc
        | Leave r -> Iset.remove r acc)
    Iset.empty schedule
  |> Iset.elements

let pp_event ppf = function
  | Join r -> Format.fprintf ppf "join(%d)" r
  | Leave r -> Format.fprintf ppf "leave(%d)" r
