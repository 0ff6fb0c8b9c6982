(* Reliable control-message transmission: per-destination pending
   slots with bounded exponential backoff.

   One slot per (from, dst, class): posting a newer message on the
   same slot supersedes the old one (implicit clearing — the
   retransmission machinery only ever carries the sender's *latest*
   state toward each peer), an explicit ack with a sequence number at
   or above the slot's clears it, and death/crash cleanup drops whole
   key ranges.  The module owns no timer: the protocol drives
   [due_iter] from a wheel entry it arms while [pending] is nonzero
   (see lib/hpim for the pump pattern), so an idle session costs zero
   engine events. *)

module Tbl = Node_tables.Int_tbl

type 'm slot = {
  s_from : int;
  s_dst : int;
  s_cls : int;
  s_sn : int;
  s_payload : 'm;
  mutable s_attempt : int;  (* completed (re)transmissions so far *)
  mutable s_next : float;  (* absolute next-retransmission deadline *)
}

type 'm t = {
  rto : float;
  rto_max : float;
  slots : 'm slot Tbl.t;
}

(* Flat slot key; supports node ids below 2^20 (the largest topology
   the tree generates is three orders of magnitude smaller). *)
let key ~from ~dst ~cls = (((from lsl 20) lor dst) lsl 2) lor cls

let create ?(rto = 30.0) ?(rto_max = 120.0) () =
  if rto <= 0.0 || rto_max < rto then
    invalid_arg "Proto.Reliable.create: need 0 < rto <= rto_max";
  { rto; rto_max; slots = Tbl.create 16 }

let rto t = t.rto

let copy t =
  let slots = Tbl.create (max 16 (Tbl.length t.slots)) in
  Tbl.iter
    (fun k (s : _ slot) -> Tbl.replace slots k { s with s_from = s.s_from })
    t.slots;
  { t with slots }

let post t ~now ~from ~dst ~cls ~sn payload =
  Tbl.replace t.slots (key ~from ~dst ~cls)
    {
      s_from = from;
      s_dst = dst;
      s_cls = cls;
      s_sn = sn;
      s_payload = payload;
      s_attempt = 1;
      s_next = now +. t.rto;
    }

let ack t ~from ~dst ~cls ~sn =
  let k = key ~from ~dst ~cls in
  match Tbl.find_opt t.slots k with
  | Some s when s.s_sn <= sn -> Tbl.remove t.slots k
  | Some _ | None -> ()

let cancel_if t f =
  let doomed =
    Tbl.fold (fun k s acc -> if f s then k :: acc else acc) t.slots []
  in
  List.iter (Tbl.remove t.slots) doomed

let cancel_between t ~from ~dst =
  cancel_if t (fun s -> s.s_from = from && s.s_dst = dst)

let drop_node t node = cancel_if t (fun s -> s.s_from = node)

let pending t = Tbl.length t.slots

let due_iter t ~now f =
  let due =
    Tbl.fold
      (fun k s acc -> if s.s_next <= now then (k, s) :: acc else acc)
      t.slots []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (_, s) ->
      let backoff =
        Float.min (t.rto *. Float.pow 2.0 (float_of_int s.s_attempt)) t.rto_max
      in
      s.s_attempt <- s.s_attempt + 1;
      s.s_next <- now +. backoff;
      f s)
    due

let digest t b =
  Tbl.fold (fun k _ acc -> k :: acc) t.slots []
  |> List.sort compare
  |> List.iter (fun k ->
         Buffer.add_char b 'r';
         Buffer.add_int64_le b (Int64.of_int k))
