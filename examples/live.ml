(* Shared by the examples: one data packet through a registry session
   ([Verif.Sut]), read back as a distribution tree — the deliveries
   [probe] returns, and per directed link the data copies it carried,
   counted off the session's per-hop trace events. *)

let probe (sut : Verif.Sut.t) =
  let loads = Hashtbl.create 32 in
  Obs.Trace.set_verbose sut.trace true;
  Obs.Trace.on_event sut.trace (fun e ->
      match e.Obs.Event.kind with
      | Obs.Event.Packet_forward { next; data = true; _ } ->
          let k = (e.node, next) in
          Hashtbl.replace loads k (1 + Option.value ~default:0 (Hashtbl.find_opt loads k))
      | _ -> ());
  let deliveries = sut.probe () in
  Obs.Trace.set_verbose sut.trace false;
  Mcast.Distribution.of_accounting ~source:sut.source
    (Hashtbl.fold (fun k n acc -> (k, n) :: acc) loads [])
    deliveries

(* Routers the tree forks at: two or more outgoing links loaded. *)
let forks dist =
  let out = Hashtbl.create 16 in
  List.iter
    (fun ((u, _), _) ->
      Hashtbl.replace out u (1 + Option.value ~default:0 (Hashtbl.find_opt out u)))
    (Mcast.Distribution.link_loads dist);
  List.sort compare (Hashtbl.fold (fun u n acc -> if n > 1 then u :: acc else acc) out [])
