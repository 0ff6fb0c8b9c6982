module Gmap = Map.Make (struct
  type t = Mcast.Class_d.t

  let compare = Mcast.Class_d.compare
end)

type config = {
  query_interval : float;
  response_max : float;
  last_member_response : float;
  robustness : int;
}

let default_config =
  {
    query_interval = 125.0;
    response_max = 10.0;
    last_member_response = 2.0;
    robustness = 2;
  }

type host_state = {
  id : int;
  mutable groups : Gmap.key list;
  (* Pending report timers per group, cancelled on suppression. *)
  mutable pending : Eventsim.Timer.t Gmap.t;
}

type t = {
  config : config;
  engine : Eventsim.Engine.t;
  rng : Stats.Rng.t;
  router : int;
  hosts : host_state list;
  (* Router's view: group -> absolute expiry time. *)
  mutable table : float Gmap.t;
  mutable queries : int;
  mutable reports : int;
}

let find_host t h =
  match List.find_opt (fun hs -> hs.id = h) t.hosts with
  | Some hs -> hs
  | None -> invalid_arg (Printf.sprintf "Igmp.Lan: unknown host %d" h)

let now t = Eventsim.Engine.now t.engine

let membership_timeout t =
  (float_of_int t.config.robustness *. t.config.query_interval)
  +. t.config.response_max

(* A report for [group] is heard by everyone on the LAN: the router
   refreshes its table, other members suppress their pending
   reports. *)
let broadcast_report t group =
  t.reports <- t.reports + 1;
  t.table <- Gmap.add group (now t +. membership_timeout t) t.table;
  List.iter
    (fun hs ->
      match Gmap.find_opt group hs.pending with
      | Some timer ->
          Eventsim.Timer.stop timer;
          hs.pending <- Gmap.remove group hs.pending
      | None -> ())
    t.hosts

(* Each member of [group] schedules a report at a uniform delay in
   [0, window]; the first to fire suppresses the rest. *)
let solicit t group ~window =
  List.iter
    (fun hs ->
      if List.mem group hs.groups && not (Gmap.mem group hs.pending) then begin
        let delay = Stats.Rng.float t.rng window in
        let timer =
          Eventsim.Timer.after t.engine ~delay (fun () ->
              let hs = hs in
              hs.pending <- Gmap.remove group hs.pending;
              broadcast_report t group)
        in
        hs.pending <- Gmap.add group timer hs.pending
      end)
    t.hosts

let general_query t =
  t.queries <- t.queries + 1;
  (* Expire groups that survived a full timeout without reports. *)
  t.table <- Gmap.filter (fun _ expiry -> expiry > now t) t.table;
  let groups =
    List.fold_left
      (fun acc hs -> List.fold_left (fun acc g -> Gmap.add g () acc) acc hs.groups)
      Gmap.empty t.hosts
  in
  Gmap.iter (fun g () -> solicit t g ~window:t.config.response_max) groups

let create ?(config = default_config) engine rng ~router ~hosts =
  let t =
    {
      config;
      engine;
      rng;
      router;
      hosts = List.map (fun id -> { id; groups = []; pending = Gmap.empty }) hosts;
      table = Gmap.empty;
      queries = 0;
      reports = 0;
    }
  in
  ignore
    (Eventsim.Timer.every engine ~start:0.0 ~period:config.query_interval
       (fun () -> general_query t));
  t

let join t ~host ~group =
  let hs = find_host t host in
  if not (List.mem group hs.groups) then begin
    hs.groups <- group :: hs.groups;
    (* Unsolicited report, immediately. *)
    broadcast_report t group
  end

let leave t ~host ~group =
  let hs = find_host t host in
  if List.mem group hs.groups then begin
    hs.groups <- List.filter (fun g -> Mcast.Class_d.compare g group <> 0) hs.groups;
    (match Gmap.find_opt group hs.pending with
    | Some timer ->
        Eventsim.Timer.stop timer;
        hs.pending <- Gmap.remove group hs.pending
    | None -> ());
    (* Group-specific query with a short deadline: if nobody answers,
       the group ages out almost immediately. *)
    t.queries <- t.queries + 1;
    t.table <-
      Gmap.add group
        (now t
        +. (float_of_int t.config.robustness *. t.config.last_member_response))
        t.table;
    solicit t group ~window:t.config.last_member_response
  end

let host_groups t h =
  (find_host t h).groups |> List.sort Mcast.Class_d.compare

let router_groups t =
  t.table
  |> Gmap.filter (fun _ expiry -> expiry > now t)
  |> Gmap.bindings |> List.map fst

let router_has t group =
  match Gmap.find_opt group t.table with
  | Some expiry -> expiry > now t
  | None -> false

let queries_sent t = t.queries
let reports_sent t = t.reports
