(* Link loads are keyed by the packed directed link, so lookups hash
   and compare plain ints. *)
module Links = Hashtbl.Make (Int)

let link u v = (u lsl 32) lor v
let link_ends k = (k lsr 32, k land 0xffff_ffff)

type t = {
  source : int;
  loads : int Links.t;
  deliveries : (int, float) Hashtbl.t;
  mutable dup_deliveries : int;
}

let create ~source =
  { source; loads = Links.create 64; deliveries = Hashtbl.create 16; dup_deliveries = 0 }

let source t = t.source

let add_copy t u v =
  let key = link u v in
  match Links.find_opt t.loads key with
  | Some n -> Links.replace t.loads key (n + 1)
  | None -> Links.add t.loads key 1

let add_path t g p =
  let delay = ref 0.0 in
  List.iter
    (fun (u, v) ->
      add_copy t u v;
      delay := !delay +. Topology.Graph.delay g u v)
    (Routing.Path.links p);
  !delay

let deliver t ~receiver ~delay =
  match Hashtbl.find_opt t.deliveries receiver with
  | None -> Hashtbl.replace t.deliveries receiver delay
  | Some prev ->
      t.dup_deliveries <- t.dup_deliveries + 1;
      if delay < prev then Hashtbl.replace t.deliveries receiver delay

let of_accounting ~source loads deliveries =
  let t = create ~source in
  List.iter
    (fun ((u, v), n) ->
      for _ = 1 to n do
        add_copy t u v
      done)
    loads;
  List.iter (fun (receiver, delay) -> deliver t ~receiver ~delay) deliveries;
  t

let cost t = Links.fold (fun _ n acc -> acc + n) t.loads 0

let copies t u v =
  match Links.find_opt t.loads (link u v) with Some n -> n | None -> 0

let links_used t = Links.length t.loads

let duplicated_links t =
  Links.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) t.loads 0

let max_stress t = Links.fold (fun _ n acc -> max acc n) t.loads 0

let receivers t =
  Hashtbl.fold (fun r _ acc -> r :: acc) t.deliveries [] |> List.sort compare

let delay t r = Hashtbl.find_opt t.deliveries r

let avg_delay t =
  let n = Hashtbl.length t.deliveries in
  if n = 0 then nan
  else Hashtbl.fold (fun _ d acc -> acc +. d) t.deliveries 0.0 /. float_of_int n

let max_delay t = Hashtbl.fold (fun _ d acc -> Float.max acc d) t.deliveries 0.0

let duplicate_deliveries t = t.dup_deliveries

(* Packed keys sort as their (u, v) pairs do. *)
let link_loads t =
  Links.fold (fun k n acc -> (k, n) :: acc) t.loads []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (k, n) -> (link_ends k, n))

let equal_shape a b =
  a.source = b.source
  && link_loads a = link_loads b
  && receivers a = receivers b

let pp ppf t =
  Format.fprintf ppf "distribution from %d: cost %d over %d links, %d receivers, avg delay %.2f"
    t.source (cost t) (links_used t)
    (Hashtbl.length t.deliveries)
    (avg_delay t)
