type event = Join of int | Leave of int

type schedule = (float * event) list

module Iset = Set.Make (Int)

let poisson rng ~candidates ~rate ~mean_hold ~horizon =
  if rate <= 0.0 then invalid_arg "Churn.poisson: rate must be positive";
  let all = Iset.of_list candidates in
  (* Generate join arrivals, then each member's departure; merge and
     keep membership consistent (no double-join, leaves only for
     members). *)
  let events = ref [] in
  let members = ref Iset.empty in
  (* Pending leaves as a simple time-ordered association list. *)
  let leaves = ref [] in
  let pop_leaves_before t =
    let due, later = List.partition (fun (lt, _) -> lt <= t) !leaves in
    leaves := later;
    List.iter
      (fun (lt, r) ->
        members := Iset.remove r !members;
        events := (lt, Leave r) :: !events)
      (List.sort compare due)
  in
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t +. Stats.Rng.exponential rng (1.0 /. rate);
    if !t > horizon then continue := false
    else begin
      pop_leaves_before !t;
      let free = Iset.elements (Iset.diff all !members) in
      match free with
      | [] -> () (* group full; arrival lost *)
      | _ ->
          let r = Stats.Rng.pick rng free in
          members := Iset.add r !members;
          events := (!t, Join r) :: !events;
          let hold = Stats.Rng.exponential rng mean_hold in
          let lt = !t +. hold in
          if lt <= horizon then leaves := (lt, r) :: !leaves
    end
  done;
  pop_leaves_before horizon;
  List.sort compare (List.rev !events)

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
  let streams =
    List.init channels (fun c ->
        let rng = Stats.Rng.derive ~seed ~index:c in
        let rate_c = rate *. Zipf.pmf popularity c in
        if rate_c <= 0.0 then []
        else
          poisson rng ~candidates ~rate:rate_c ~mean_hold ~horizon
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
