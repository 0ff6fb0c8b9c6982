type t = {
  mutable kinds_rev : Graph.kind list;
  mutable n : int;
  mutable links_rev : (int * int * int * int) list;
  mutable nlinks : int;
  (* Endpoint-normalised index over links_rev: membership must stay
     O(1) — generators add O(n) links and probe before every add, so
     a list scan here turns an n=5k build quadratic. *)
  link_index : (int * int, unit) Hashtbl.t;
}

let create () =
  {
    kinds_rev = [];
    n = 0;
    links_rev = [];
    nlinks = 0;
    link_index = Hashtbl.create 256;
  }

let add_node b k =
  let id = b.n in
  b.kinds_rev <- k :: b.kinds_rev;
  b.n <- id + 1;
  id

let add_router b = add_node b Graph.Router

let add_routers b k = List.init k (fun _ -> add_router b)

let check_node b i =
  if i < 0 || i >= b.n then
    invalid_arg (Printf.sprintf "Builder: node %d out of range" i)

let link_key u v = if u < v then (u, v) else (v, u)
let has_link b u v = Hashtbl.mem b.link_index (link_key u v)

let check_costs cost cost_back =
  if cost < 1 || cost_back < 1 then
    invalid_arg
      (Printf.sprintf "Builder: link costs %d/%d, below 1" cost cost_back)

let add_raw_link b u v cost cost_back =
  check_costs cost cost_back;
  check_node b u;
  check_node b v;
  if u = v then invalid_arg "Builder.add_link: self-loop";
  if has_link b u v then
    invalid_arg (Printf.sprintf "Builder.add_link: duplicate link %d-%d" u v);
  Hashtbl.replace b.link_index (link_key u v) ();
  b.links_rev <- (u, v, cost, cost_back) :: b.links_rev;
  b.nlinks <- b.nlinks + 1

let add_host b ~router ?(cost = 1) ?(cost_back = 1) () =
  check_node b router;
  check_costs cost cost_back;
  let id = add_node b Graph.Host in
  add_raw_link b router id cost cost_back;
  id

let add_link b u v ?(cost = 1) ?(cost_back = 1) () =
  add_raw_link b u v cost cost_back

let build b =
  Graph.make
    ~kinds:(Array.of_list (List.rev b.kinds_rev))
    ~links:(List.rev b.links_rev)

let attach_host_per_router b =
  let routers =
    List.rev b.kinds_rev
    |> List.mapi (fun i k -> (i, k))
    |> List.filter_map (fun (i, k) -> if k = Graph.Router then Some i else None)
  in
  List.iter (fun r -> ignore (add_host b ~router:r ())) routers
