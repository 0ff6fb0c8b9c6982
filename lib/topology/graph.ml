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

type view = {
  generation : int;
  offsets : int array;
  nbrs : int array;
  cost_in : int array;
  cost_out : int array;
  stub : bool array;
  max_cost : int;
}

type t = {
  kinds : kind array;
  capable : bool array;
  adj : (int * int) list array; (* node -> (neighbor, link id) list *)
  link_arr : link array;
  slot_link : int array; (* routing-view slot -> link id *)
  mutable generation : int; (* bumped by every routing-relevant mutator *)
  view : view Atomic.t;
      (* the routing view last built; stale when its generation differs *)
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

let multicast_router g i = is_router g i && g.capable.(i)

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

let bump g = g.generation <- g.generation + 1

(* A cost below 1 would let tied nodes pick each other as next hop (a
   zero-cost link both ways makes a forwarding loop), so none gets in. *)
let check_cost what c =
  if c < 1 then invalid_arg (Printf.sprintf "%s: cost %d below 1" what c)

let set_cost g u v c =
  check_cost "Graph.set_cost" c;
  let l = directed_link g u v in
  if l.u = u then l.cost_uv <- c else l.cost_vu <- c;
  bump g

let link_up g u v = (directed_link g u v).up

let set_link_up g u v b =
  (directed_link g u v).up <- b;
  bump g

let router_of_host g h =
  if not (is_host g h) then
    invalid_arg (Printf.sprintf "Graph.router_of_host: %d is not a host" h);
  match g.adj.(h) with
  | [ (r, _) ] when g.kinds.(r) = Router -> r
  | _ -> invalid_arg (Printf.sprintf "Graph.router_of_host: host %d ill-attached" h)

let randomize_costs g rng ~lo ~hi =
  check_cost "Graph.randomize_costs" lo;
  Array.iter
    (fun l ->
      l.cost_uv <- Stats.Rng.int_in rng lo hi;
      l.cost_vu <- Stats.Rng.int_in rng lo hi;
      l.delay_uv <- float_of_int l.cost_uv;
      l.delay_vu <- float_of_int l.cost_vu)
    g.link_arr;
  bump g

let symmetrize_costs g =
  Array.iter
    (fun l ->
      l.cost_vu <- l.cost_uv;
      l.delay_vu <- l.delay_uv)
    g.link_arr;
  bump g

let generation g = g.generation

(* The graph's full mutable footprint: per-link costs/delays/up flags
   plus the multicast-capability flags.  Structure (nodes, adjacency)
   is immutable and shared.  [ls_of] and [ls_generation] name the
   graph and generation the links were saved at. *)
type link_state = {
  ls_links : (int * int * float * float * bool) array;
  ls_capable : bool array;
  ls_of : link array;
  ls_generation : int;
}

let save_links g =
  {
    ls_links =
      Array.map
        (fun l -> (l.cost_uv, l.cost_vu, l.delay_uv, l.delay_vu, l.up))
        g.link_arr;
    ls_capable = Array.copy g.capable;
    ls_of = g.link_arr;
    ls_generation = g.generation;
  }

(* Every link mutator bumps the generation and [link] is private, so
   the same graph at the saved generation still holds the saved links:
   rewriting them (and bumping) would only stale the routing view.
   The capability flags are copied back regardless — their mutator
   does not bump. *)
let restore_links g s =
  if
    Array.length s.ls_links <> Array.length g.link_arr
    || Array.length s.ls_capable <> Array.length g.capable
  then invalid_arg "Graph.restore_links: snapshot from a different graph";
  Array.blit s.ls_capable 0 g.capable 0 (Array.length g.capable);
  if s.ls_of != g.link_arr || s.ls_generation <> g.generation then begin
    Array.iteri
      (fun i (cuv, cvu, duv, dvu, up) ->
        let l = g.link_arr.(i) in
        l.cost_uv <- cuv;
        l.cost_vu <- cvu;
        l.delay_uv <- duv;
        l.delay_vu <- dvu;
        l.up <- up)
      s.ls_links;
    bump g
  end

(* ---- Routing view ------------------------------------------------- *)

let make_view ~generation ~offsets ~nbrs ~cost_in ~cost_out =
  let n = Array.length offsets - 1 in
  if
    n < 0
    || offsets.(0) <> 0
    || Array.length nbrs <> offsets.(n)
    || Array.length cost_in <> offsets.(n)
    || Array.length cost_out <> offsets.(n)
  then invalid_arg "Graph.make_view: ragged arrays";
  let stub = Array.init n (fun i -> offsets.(i + 1) - offsets.(i) = 1) in
  let max_cost = Array.fold_left (fun a c -> if c > a then c else a) 0 cost_in in
  { generation; offsets; nbrs; cost_in; cost_out; stub; max_cost }

(* The structure half of the view (offsets, neighbour ids, stub flags)
   never changes, so every generation's view shares it and only the
   two cost arrays are rebuilt.  Generation -1 marks it stale.  The
   second result maps each slot to its link's id. *)
let structure_view adj =
  let n = Array.length adj in
  let offsets = Array.make (n + 1) 0 in
  Array.iteri (fun i l -> offsets.(i + 1) <- offsets.(i) + List.length l) adj;
  let m = offsets.(n) in
  let nbrs = Array.make m 0 and slot_link = Array.make m 0 in
  Array.iteri
    (fun i l ->
      List.iteri
        (fun j (w, lid) ->
          nbrs.(offsets.(i) + j) <- w;
          slot_link.(offsets.(i) + j) <- lid)
        l)
    adj;
  ( make_view ~generation:(-1) ~offsets ~nbrs ~cost_in:(Array.make m (-1))
      ~cost_out:(Array.make m (-1)),
    slot_link )

(* Rebuild into fresh arrays and publish with one [Atomic.set]: a view
   is immutable once another domain can see it.  Two domains racing on
   a stale view both build the same arrays; either result is good. *)
let routing_view g =
  let v = Atomic.get g.view in
  let generation = g.generation in
  if v.generation = generation then v
  else begin
    let offsets = v.offsets and slot_link = g.slot_link and links = g.link_arr in
    let m = Array.length slot_link in
    let cost_in = Array.make m (-1) and cost_out = Array.make m (-1) in
    let max_cost = ref 0 in
    for u = 0 to Array.length offsets - 2 do
      for k = offsets.(u) to offsets.(u + 1) - 1 do
        let l = links.(slot_link.(k)) in
        if l.up then begin
          let forward = l.u = u in
          let c_in = if forward then l.cost_vu else l.cost_uv in
          cost_out.(k) <- (if forward then l.cost_uv else l.cost_vu);
          cost_in.(k) <- c_in;
          if c_in > !max_cost then max_cost := c_in
        end
      done
    done;
    let fresh = { v with generation; cost_in; cost_out; max_cost = !max_cost } in
    Atomic.set g.view fresh;
    fresh
  end

let copy g =
  {
    kinds = Array.copy g.kinds;
    capable = Array.copy g.capable;
    adj = Array.copy g.adj;
    link_arr = Array.map (fun l -> { l with id = l.id }) g.link_arr;
    slot_link = g.slot_link;
    generation = 0;
    view = Atomic.make { (Atomic.get g.view) with generation = -1 };
  }

let pp ppf g =
  Format.fprintf ppf "graph: %d nodes (%d routers, %d hosts), %d links, avg router degree %.2f"
    (node_count g)
    (List.length (routers g))
    (List.length (hosts g))
    (link_count g) (avg_router_degree g)

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
           check_cost "Graph.make" cuv;
           check_cost "Graph.make" cvu;
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
  let view, slot_link = structure_view adj in
  {
    kinds = Array.copy kinds;
    capable = Array.make n true;
    adj;
    link_arr;
    slot_link;
    generation = 0;
    view = Atomic.make view;
  }
