type t = {
  receivers : int list;
  sends : (int, float) Hashtbl.t;  (* seq -> send time *)
  got : (int * int, int) Hashtbl.t;  (* (receiver, seq) -> copies *)
  first_repair : (int, float) Hashtbl.t;  (* receiver -> delivery time *)
  mutable fault_time : float option;
  mutable heal_time : float option;
  mutable control : (float * int) list;  (* (time, cumulative hops), newest first *)
  (* Degradation-during-fault bookkeeping: when each receiver last
     heard data, its longest silent gap since the fault, and the
     latest instant any note_* call observed (the open gap's end). *)
  last_seen : (int, float) Hashtbl.t;
  max_gap : (int, float) Hashtbl.t;
  mutable last_event : float;
}

let create ~receivers =
  {
    receivers = List.sort_uniq compare receivers;
    sends = Hashtbl.create 256;
    got = Hashtbl.create 1024;
    first_repair = Hashtbl.create 16;
    fault_time = None;
    heal_time = None;
    control = [];
    last_seen = Hashtbl.create 16;
    max_gap = Hashtbl.create 16;
    last_event = 0.0;
  }

let touch t now = if now > t.last_event then t.last_event <- now

let note_send t ~now ~seq =
  touch t now;
  if not (Hashtbl.mem t.sends seq) then Hashtbl.replace t.sends seq now

let note_fault t ~now =
  touch t now;
  match t.fault_time with
  | Some tf when tf <= now -> ()
  | _ -> t.fault_time <- Some now

(* The repair instant (link back up, partition healed): closes the
   during-fault window the degradation metrics measure.  Idempotent —
   the first call wins. *)
let note_heal t ~now =
  touch t now;
  match t.heal_time with
  | Some th when th <= now -> ()
  | _ -> t.heal_time <- Some now

let note_control t ~now ~hops =
  touch t now;
  t.control <- (now, hops) :: t.control

let note_delivery t ~now ~receiver ~seq =
  touch t now;
  let k = (receiver, seq) in
  Hashtbl.replace t.got k (1 + Option.value ~default:0 (Hashtbl.find_opt t.got k));
  (* Outage tracking: a receiver's silent gap since the fault (or
     since its previous delivery, whichever is later) ends now. *)
  (match t.fault_time with
  | Some tf when now >= tf ->
      let from =
        match Hashtbl.find_opt t.last_seen receiver with
        | Some l when l > tf -> l
        | _ -> tf
      in
      let gap = now -. from in
      let worst =
        Option.value ~default:0.0 (Hashtbl.find_opt t.max_gap receiver)
      in
      if gap > worst then Hashtbl.replace t.max_gap receiver gap
  | _ -> ());
  Hashtbl.replace t.last_seen receiver now;
  (* Repair = first delivery of a sequence number that was *sent*
     after the fault: copies already in flight when the fault hit do
     not prove the tree healed. *)
  match t.fault_time with
  | Some tf when not (Hashtbl.mem t.first_repair receiver) -> (
      match Hashtbl.find_opt t.sends seq with
      | Some sent when sent >= tf -> Hashtbl.replace t.first_repair receiver now
      | _ -> ())
  | _ -> ()

let repaired_count t = Hashtbl.length t.first_repair
let delivery_count t = Hashtbl.length t.got
let copy_count t = Hashtbl.fold (fun _ n acc -> acc + n) t.got 0
let sent_count t = Hashtbl.length t.sends
let last_delivery t r = Hashtbl.find_opt t.last_seen r

type receiver_outcome = {
  receiver : int;
  time_to_repair : float option;
  lost : int;
  duplicated : int;
}

type report = {
  fault_time : float option;
  outcomes : receiver_outcome list;
  recovered : bool;
  max_time_to_repair : float option;
  total_lost : int;
  total_duplicated : int;
  sent_after_fault : int;
  overhead_inflation : float;
  goodput_floor : float;
  worst_outage : float;
  inflation_during_fault : float;
}

(* Control rate between the last sample at/before the fault and the
   last sample at/before [upto], over the pre-fault baseline rate.
   nan when there are not enough samples on both sides (or a
   zero-rate baseline). *)
let rate_ratio (t : t) ~upto =
  match t.fault_time with
  | None -> nan
  | Some tf -> (
      let samples = List.sort compare t.control in
      match samples with
      | [] | [ _ ] -> nan
      | (t0, h0) :: _ -> (
          let pre = List.filter (fun (tm, _) -> tm <= tf) samples in
          let win = List.filter (fun (tm, _) -> tm <= upto) samples in
          match (List.rev pre, List.rev win) with
          | (tp, hp) :: _, (te, he) :: _
            when tp -. t0 > 0.0 && te -. tp > 0.0 ->
              let pre_rate = float_of_int (hp - h0) /. (tp -. t0) in
              let post_rate = float_of_int (he - hp) /. (te -. tp) in
              if pre_rate > 0.0 then post_rate /. pre_rate else nan
          | _ -> nan))

let inflation (t : t) = rate_ratio t ~upto:infinity

(* During-fault control inflation: the same ratio, but the window
   closes at {!note_heal} — the overhead the members pay while the
   network is actually broken (e.g. joins beating against a
   partition), not the repair burst afterwards. *)
let inflation_during (t : t) =
  match t.heal_time with None -> inflation t | Some th -> rate_ratio t ~upto:th

(* Goodput floor: over the sequences sent while the fault was active,
   the worst per-sequence delivery fraction (deliveries / receivers).
   nan when nothing was sent during the fault. *)
let goodput_floor (t : t) =
  match (t.fault_time, t.receivers) with
  | None, _ | _, [] -> nan
  | Some tf, receivers ->
      let upto = match t.heal_time with Some th -> th | None -> infinity in
      let nr = float_of_int (List.length receivers) in
      Hashtbl.fold
        (fun seq sent floor ->
          if sent >= tf && sent <= upto then begin
            let got =
              List.fold_left
                (fun acc r -> if Hashtbl.mem t.got (r, seq) then acc + 1 else acc)
                0 receivers
            in
            Float.min floor (float_of_int got /. nr)
          end
          else floor)
        t.sends infinity
      |> fun f -> if Float.is_finite f then f else nan

(* Worst member outage: the longest silent gap any receiver suffered
   from the fault onward — closed gaps from the delivery log, plus
   each receiver's still-open gap up to the last observed instant. *)
let worst_outage (t : t) =
  match t.fault_time with
  | None -> nan
  | Some tf -> (
      match t.receivers with
      | [] -> nan
      | receivers ->
          List.fold_left
            (fun worst r ->
              let closed =
                Option.value ~default:0.0 (Hashtbl.find_opt t.max_gap r)
              in
              let open_from =
                match Hashtbl.find_opt t.last_seen r with
                | Some l when l > tf -> l
                | _ -> tf
              in
              let open_gap = Float.max 0.0 (t.last_event -. open_from) in
              Float.max worst (Float.max closed open_gap))
            0.0 receivers)

let report (t : t) =
  let tf = t.fault_time in
  let outcomes =
    List.map
      (fun r ->
        let time_to_repair =
          match tf with
          | None -> None
          | Some f ->
              Option.map (fun d -> d -. f) (Hashtbl.find_opt t.first_repair r)
        in
        let lost =
          match tf with
          | None -> 0
          | Some f ->
              Hashtbl.fold
                (fun seq sent acc ->
                  if sent >= f && not (Hashtbl.mem t.got (r, seq)) then acc + 1
                  else acc)
                t.sends 0
        in
        let duplicated =
          Hashtbl.fold
            (fun (r', _) n acc -> if r' = r && n > 1 then acc + (n - 1) else acc)
            t.got 0
        in
        { receiver = r; time_to_repair; lost; duplicated })
      t.receivers
  in
  let ttrs = List.filter_map (fun o -> o.time_to_repair) outcomes in
  {
    fault_time = tf;
    outcomes;
    recovered =
      tf <> None
      && outcomes <> []
      && List.for_all (fun o -> o.time_to_repair <> None) outcomes;
    max_time_to_repair =
      (match ttrs with [] -> None | l -> Some (List.fold_left max 0.0 l));
    total_lost = List.fold_left (fun a o -> a + o.lost) 0 outcomes;
    total_duplicated = List.fold_left (fun a o -> a + o.duplicated) 0 outcomes;
    sent_after_fault =
      (match tf with
      | None -> 0
      | Some f ->
          Hashtbl.fold
            (fun _ sent acc -> if sent >= f then acc + 1 else acc)
            t.sends 0);
    overhead_inflation = inflation t;
    goodput_floor = goodput_floor t;
    worst_outage = worst_outage t;
    inflation_during_fault = inflation_during t;
  }

let export ?(prefix = "fault.recovery") registry r =
  let gauge name v =
    if Float.is_finite v then
      Obs.Metrics.set (Obs.Metrics.gauge registry (prefix ^ "." ^ name)) v
  in
  gauge "recovered" (if r.recovered then 1.0 else 0.0);
  (match r.max_time_to_repair with
  | Some v -> gauge "time_to_repair_max" v
  | None -> ());
  gauge "lost_deliveries" (float_of_int r.total_lost);
  gauge "duplicate_deliveries" (float_of_int r.total_duplicated);
  gauge "sent_after_fault" (float_of_int r.sent_after_fault);
  gauge "overhead_inflation" r.overhead_inflation;
  gauge "goodput_floor" r.goodput_floor;
  gauge "worst_outage" r.worst_outage;
  gauge "inflation_during_fault" r.inflation_during_fault;
  let histo = Obs.Metrics.histogram registry (prefix ^ ".time_to_repair") in
  List.iter
    (fun o ->
      match o.time_to_repair with
      | Some v -> Obs.Histo.observe histo v
      | None -> ())
    r.outcomes
