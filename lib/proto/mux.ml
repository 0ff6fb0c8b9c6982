module Net = Netsim.Network
module Pkt = Netsim.Packet
module Wheel = Eventsim.Wheel
module Tbl = Node_tables.Int_tbl

type 'p port = {
  p_handle : int -> 'p Pkt.t -> Net.verdict;
  p_deliver : now:float -> node:int -> 'p Pkt.t -> unit;
  p_node_event : up:bool -> int -> unit;
  p_route_change : changed:int -> unit;
}

type 'p t = {
  network : 'p Net.t;
  ports : 'p port Tbl.t;
  mutable ports_fwd : 'p port list; (* registration order *)
  covered : bool array; (* by node id *)
  wheel : Wheel.t;
}

let create ?tag ~key_of network =
  let t =
    {
      network;
      ports = Tbl.create 64;
      ports_fwd = [];
      covered = Array.make (Topology.Graph.node_count (Net.graph network)) false;
      wheel = Wheel.create ?tag (Net.engine network);
    }
  in
  (* The network's one handler: a coverage test, then an O(1) key
     lookup.  [Tbl.find] rather than [find_opt] keeps the per-hop
     path allocation-free. *)
  Net.set_handler network (fun _net node (p : 'p Pkt.t) ->
      if not t.covered.(node) then Net.Forward
      else
        match Tbl.find t.ports (key_of p.Pkt.payload) with
        | port -> port.p_handle node p
        | exception Not_found -> Net.Forward);
  Net.on_node_event network (fun ~up n ->
      List.iter (fun po -> po.p_node_event ~up n) t.ports_fwd);
  Net.on_route_change network (fun ~changed ->
      List.iter (fun po -> po.p_route_change ~changed) t.ports_fwd);
  Net.on_delivery network (fun ~now ~node p ->
      match Tbl.find t.ports (key_of p.Pkt.payload) with
      | port -> port.p_deliver ~now ~node p
      | exception Not_found -> ());
  t

let network t = t.network
let timers t = t.wheel

let register t ~key port =
  if Tbl.mem t.ports key then
    invalid_arg (Printf.sprintf "Mux.register: duplicate channel key %d" key);
  Tbl.replace t.ports key port;
  t.ports_fwd <- t.ports_fwd @ [ port ]

let cover t n = t.covered.(n) <- true

(* ---- Checkpoint / restore -------------------------------------------- *)

(* The mux's own mutable footprint on top of the network snapshot: the
   coverage (a re-subscribe after restore must see the cover set of the
   restored run) and the wheel.  Ports registered after [save] survive
   a [restore] — sessions sharing a mux snapshot and restore as one
   unit, which the single-session verifier does trivially. *)
type state = { st_covered : bool array; st_wheel : Wheel.snap }

let save_state t =
  { st_covered = Array.copy t.covered; st_wheel = Wheel.save t.wheel }

let restore_state t s =
  Array.blit s.st_covered 0 t.covered 0 (Array.length t.covered);
  Wheel.restore t.wheel s.st_wheel
