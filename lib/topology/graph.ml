type kind = Router | Host

type link = {
  id : int;
  u : int;
  v : int;
  mutable cost_uv : int;
  mutable cost_vu : int;
  mutable delay_uv : float;
  mutable delay_vu : float;
  mutable up : bool;
}

type t = {
  kinds : kind array;
  capable : bool array;
  adj : (int * int) list array; (* node -> (neighbor, link id) list *)
  link_arr : link array;
}

let node_count g = Array.length g.kinds
let link_count g = Array.length g.link_arr

let check_node g i =
  if i < 0 || i >= node_count g then
    invalid_arg (Printf.sprintf "Graph: node %d out of range" i)

let kind g i =
  check_node g i;
  g.kinds.(i)

let is_router g i = kind g i = Router
let is_host g i = kind g i = Host

let ids_of_kind g k =
  let acc = ref [] in
  for i = node_count g - 1 downto 0 do
    if g.kinds.(i) = k then acc := i :: !acc
  done;
  !acc

let routers g = ids_of_kind g Router
let hosts g = ids_of_kind g Host

let multicast_capable g i =
  check_node g i;
  g.capable.(i)

let set_multicast_capable g i b =
  check_node g i;
  g.capable.(i) <- b

let neighbors g i =
  check_node g i;
  List.map fst g.adj.(i)

let adjacency g i =
  check_node g i;
  g.adj.(i)

let degree g i =
  check_node g i;
  List.length g.adj.(i)

let avg_router_degree g =
  let routers = routers g in
  match routers with
  | [] -> 0.0
  | _ ->
      let deg =
        List.fold_left
          (fun acc r ->
            acc
            + List.length
                (List.filter (fun (n, _) -> g.kinds.(n) = Router) g.adj.(r)))
          0 routers
      in
      float_of_int deg /. float_of_int (List.length routers)

let links g = Array.to_list g.link_arr

let link g i =
  if i < 0 || i >= link_count g then
    invalid_arg (Printf.sprintf "Graph: link %d out of range" i);
  g.link_arr.(i)

(* The id of the link joining [u] to [v], or -1: a closure-free walk
   of [u]'s adjacency, so the per-hop lookups below allocate
   nothing. *)
let rec link_id_in (v : int) = function
  | [] -> -1
  | (n, lid) :: rest -> if n = v then lid else link_id_in v rest

let link_id g u v =
  check_node g u;
  check_node g v;
  link_id_in v g.adj.(u)

let find_link g u v =
  let lid = link_id g u v in
  if lid < 0 then None else Some g.link_arr.(lid)

let connected g u v = link_id g u v >= 0

let directed_link g u v =
  let lid = link_id g u v in
  if lid < 0 then invalid_arg (Printf.sprintf "Graph: no link %d-%d" u v)
  else g.link_arr.(lid)

let cost g u v =
  let l = directed_link g u v in
  if l.u = u then l.cost_uv else l.cost_vu

let delay g u v =
  let l = directed_link g u v in
  if l.u = u then l.delay_uv else l.delay_vu

let set_cost g u v c =
  let l = directed_link g u v in
  if l.u = u then l.cost_uv <- c else l.cost_vu <- c

let set_delay g u v d =
  let l = directed_link g u v in
  if l.u = u then l.delay_uv <- d else l.delay_vu <- d

let link_up g u v = (directed_link g u v).up

let set_link_up g u v b = (directed_link g u v).up <- b

let all_links_up g = Array.for_all (fun l -> l.up) g.link_arr

let down_links g =
  Array.fold_left (fun acc l -> if l.up then acc else (l.u, l.v) :: acc) [] g.link_arr
  |> List.rev

let router_of_host g h =
  if not (is_host g h) then
    invalid_arg (Printf.sprintf "Graph.router_of_host: %d is not a host" h);
  match g.adj.(h) with
  | [ (r, _) ] when g.kinds.(r) = Router -> r
  | _ -> invalid_arg (Printf.sprintf "Graph.router_of_host: host %d ill-attached" h)

let hosts_of_router g r =
  check_node g r;
  List.filter (fun n -> g.kinds.(n) = Host) (neighbors g r)

let is_connected g =
  let n = node_count g in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let rec dfs i =
      if not seen.(i) then begin
        seen.(i) <- true;
        List.iter (fun (j, _) -> dfs j) g.adj.(i)
      end
    in
    dfs 0;
    Array.for_all Fun.id seen
  end

let randomize_costs g rng ~lo ~hi =
  Array.iter
    (fun l ->
      l.cost_uv <- Stats.Rng.int_in rng lo hi;
      l.cost_vu <- Stats.Rng.int_in rng lo hi;
      l.delay_uv <- float_of_int l.cost_uv;
      l.delay_vu <- float_of_int l.cost_vu)
    g.link_arr

let symmetrize_costs g =
  Array.iter
    (fun l ->
      l.cost_vu <- l.cost_uv;
      l.delay_vu <- l.delay_uv)
    g.link_arr

let asymmetric_link_fraction g =
  let n = link_count g in
  if n = 0 then 0.0
  else
    let asym =
      Array.fold_left
        (fun acc l -> if l.cost_uv <> l.cost_vu then acc + 1 else acc)
        0 g.link_arr
    in
    float_of_int asym /. float_of_int n

let map_costs g f =
  Array.iter
    (fun l ->
      let cuv, cvu = f l in
      l.cost_uv <- cuv;
      l.cost_vu <- cvu;
      l.delay_uv <- float_of_int cuv;
      l.delay_vu <- float_of_int cvu)
    g.link_arr

(* The graph's full mutable footprint: per-link costs/delays/up flags
   plus the multicast-capability flags.  Structure (nodes, adjacency)
   is immutable and shared. *)
type link_state = {
  ls_links : (int * int * float * float * bool) array;
  ls_capable : bool array;
}

let save_links g =
  {
    ls_links =
      Array.map
        (fun l -> (l.cost_uv, l.cost_vu, l.delay_uv, l.delay_vu, l.up))
        g.link_arr;
    ls_capable = Array.copy g.capable;
  }

let restore_links g s =
  if
    Array.length s.ls_links <> Array.length g.link_arr
    || Array.length s.ls_capable <> Array.length g.capable
  then invalid_arg "Graph.restore_links: snapshot from a different graph";
  Array.iteri
    (fun i (cuv, cvu, duv, dvu, up) ->
      let l = g.link_arr.(i) in
      l.cost_uv <- cuv;
      l.cost_vu <- cvu;
      l.delay_uv <- duv;
      l.delay_vu <- dvu;
      l.up <- up)
    s.ls_links;
  Array.blit s.ls_capable 0 g.capable 0 (Array.length g.capable)

let copy g =
  {
    kinds = Array.copy g.kinds;
    capable = Array.copy g.capable;
    adj = Array.copy g.adj;
    link_arr = Array.map (fun l -> { l with id = l.id }) g.link_arr;
  }

let pp ppf g =
  Format.fprintf ppf "graph: %d nodes (%d routers, %d hosts), %d links, avg router degree %.2f"
    (node_count g)
    (List.length (routers g))
    (List.length (hosts g))
    (link_count g) (avg_router_degree g)

let pp_dot ppf g =
  Format.fprintf ppf "graph topology {@.";
  for i = 0 to node_count g - 1 do
    let shape = match g.kinds.(i) with Router -> "box" | Host -> "ellipse" in
    Format.fprintf ppf "  n%d [shape=%s];@." i shape
  done;
  Array.iter
    (fun l ->
      Format.fprintf ppf "  n%d -- n%d [label=\"%d/%d\"];@." l.u l.v l.cost_uv
        l.cost_vu)
    g.link_arr;
  Format.fprintf ppf "}@."

let make ~kinds ~links =
  let n = Array.length kinds in
  let check i =
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Graph.make: node %d out of range" i)
  in
  let adj = Array.make n [] in
  let link_arr =
    Array.of_list
      (List.mapi
         (fun id (u, v, cuv, cvu) ->
           check u;
           check v;
           if u = v then invalid_arg "Graph.make: self-loop";
           if List.exists (fun (w, _) -> w = v) adj.(u) then
             invalid_arg (Printf.sprintf "Graph.make: duplicate link %d-%d" u v);
           adj.(u) <- (v, id) :: adj.(u);
           adj.(v) <- (u, id) :: adj.(v);
           {
             id;
             u;
             v;
             cost_uv = cuv;
             cost_vu = cvu;
             delay_uv = float_of_int cuv;
             delay_vu = float_of_int cvu;
             up = true;
           })
         links)
  in
  (* Keep adjacency in ascending neighbor order: deterministic
     iteration gives deterministic tie-breaking downstream. *)
  Array.iteri
    (fun i l -> adj.(i) <- List.sort (fun (a, _) (b, _) -> compare a b) l)
    adj;
  Array.iteri
    (fun i k ->
      if k = Host && List.length adj.(i) <> 1 then
        invalid_arg
          (Printf.sprintf "Graph.make: host %d must have exactly one link" i))
    kinds;
  { kinds = Array.copy kinds; capable = Array.make n true; adj; link_arr }
