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

let add_link t key =
  match Links.find_opt t.loads key with
  | Some n -> Links.replace t.loads key (n + 1)
  | None -> Links.add t.loads key 1

let add_copy t u v = add_link t (link u v)

let add_path t g p =
  List.iter (fun (u, v) -> add_copy t u v) (Routing.Path.links p);
  Routing.Path.delay g p

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

(* The union of unicast paths.  Its links are the packed keys the
   loads use, so laying one copy per union link is one [add_link]
   each. *)
type distribution = t

module Union = struct
  type t = {
    graph : Topology.Graph.t;
    paths : (int * int list) list;
    links : unit Links.t;
  }

  let create graph paths =
    let links = Links.create 64 in
    let rec add = function
      | u :: (v :: _ as rest) ->
          Links.replace links (link u v) ();
          add rest
      | [ _ ] | [] -> ()
    in
    List.iter (fun (_, p) -> add p) paths;
    { graph; paths; links }

  let links t =
    Links.fold (fun k () acc -> k :: acc) t.links []
    |> List.sort Int.compare |> List.map link_ends

  let deliver ?(lead = 0.0) t (dist : distribution) =
    Links.iter (fun k () -> add_link dist k) t.links;
    List.iter
      (fun (r, p) ->
        deliver dist ~receiver:r ~delay:(lead +. Routing.Path.delay t.graph p))
      t.paths

  type router = { router : int; out_degree : int; in_degree : int }

  let routers t =
    let g = t.graph in
    let n = Topology.Graph.node_count g in
    let out = Array.make n 0 and inn = Array.make n 0 in
    Links.iter
      (fun k () ->
        let u, v = link_ends k in
        out.(u) <- out.(u) + 1;
        inn.(v) <- inn.(v) + 1)
      t.links;
    let acc = ref [] in
    for r = n - 1 downto 0 do
      if (out.(r) > 0 || inn.(r) > 0) && Topology.Graph.is_router g r then
        acc := { router = r; out_degree = out.(r); in_degree = inn.(r) } :: !acc
    done;
    !acc
end
