(* The Set-based schedule generator Workload.Churn ran before its
   Fenwick-tree draws, kept as test_workload's reference: every arrival
   lists the free candidates and picks one with [Rng.pick]. *)

open Workload.Churn

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

(* Channel [c]'s reference stream from its derived rng, tagged with
   [c]; channels at rate 0 draw nothing.  The merge is the documented
   stable sort on (time, channel). *)
let multi ~seed ~channels ~candidates ~rate ~popularity ~mean_hold ~horizon =
  let streams =
    List.init channels (fun c ->
        let rate_c = rate *. Workload.Zipf.pmf popularity c in
        if rate_c <= 0.0 then []
        else
          poisson
            (Stats.Rng.derive ~seed ~index:c)
            ~candidates ~rate:rate_c ~mean_hold ~horizon
          |> List.map (fun (t, ev) -> (t, c, ev)))
  in
  List.stable_sort
    (fun (t1, c1, _) (t2, c2, _) ->
      match Float.compare t1 t2 with 0 -> Int.compare c1 c2 | d -> d)
    (List.concat streams)
