let finish ~hosts b =
  if hosts then Builder.attach_host_per_router b;
  Builder.build b

(* Uniform random spanning tree by random node permutation: node i of
   the permutation attaches to a uniformly chosen earlier node.  Not
   uniform over all trees, but unbiased enough for workload
   generation and O(n). *)
let random_tree rng b ids =
  let order = Array.of_list ids in
  Stats.Rng.shuffle rng order;
  Array.iteri
    (fun i v ->
      if i > 0 then
        let u = order.(Stats.Rng.int rng i) in
        Builder.add_link b u v ())
    order

let random_connected ?(hosts = true) rng ~n ~avg_degree =
  if n < 1 then invalid_arg "Generators.random_connected: n must be >= 1";
  let target_links =
    int_of_float (Float.round (float_of_int n *. avg_degree /. 2.0))
  in
  let max_links = n * (n - 1) / 2 in
  if target_links < n - 1 then
    invalid_arg "Generators.random_connected: avg_degree below spanning tree";
  if target_links > max_links then
    invalid_arg "Generators.random_connected: avg_degree above complete graph";
  let b = Builder.create () in
  let ids = Builder.add_routers b n in
  random_tree rng b ids;
  let remaining = ref (target_links - (n - 1)) in
  while !remaining > 0 do
    let u = Stats.Rng.int rng n in
    let v = Stats.Rng.int rng n in
    if u <> v && not (Builder.has_link b u v) then begin
      Builder.add_link b u v ();
      decr remaining
    end
  done;
  finish ~hosts b

let waxman ?(hosts = true) ?(alpha = 0.25) ?(beta = 0.4) rng ~n =
  if n < 1 then invalid_arg "Generators.waxman: n must be >= 1";
  let b = Builder.create () in
  let ids = Builder.add_routers b n in
  let pos = Array.init n (fun _ -> (Stats.Rng.float rng 1.0, Stats.Rng.float rng 1.0)) in
  let dist i j =
    let xi, yi = pos.(i) and xj, yj = pos.(j) in
    Float.hypot (xi -. xj) (yi -. yj)
  in
  let diag = sqrt 2.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p = alpha *. exp (-.dist i j /. (beta *. diag)) in
      if Stats.Rng.float rng 1.0 < p then Builder.add_link b i j ()
    done
  done;
  (* Guarantee connectivity: attach every later node of a random order
     to some earlier node if its component is still separate.  A
     cheap union-find keeps this O(n alpha(n)). *)
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  (* Record existing components. *)
  List.iter
    (fun i ->
      List.iter (fun j -> if j < i && Builder.has_link b i j then union i j)
        ids)
    ids;
  List.iter
    (fun v ->
      if v > 0 && find v <> find 0 then begin
        let u = Stats.Rng.int rng v in
        if not (Builder.has_link b u v) then Builder.add_link b u v ();
        union u v
      end)
    ids;
  finish ~hosts b

let power_law ?(hosts = true) ?(m = 2) rng ~n =
  if m < 1 then invalid_arg "Generators.power_law: need m >= 1";
  if n <= m then invalid_arg "Generators.power_law: need n > m";
  let b = Builder.create () in
  ignore (Builder.add_routers b n);
  (* Barabási–Albert preferential attachment via the repeated-endpoint
     trick: the pool holds every link endpoint once, so a uniform draw
     from it is a degree-proportional draw — O(n * m) for the whole
     build, no degree bookkeeping. *)
  let seed = m + 1 in
  let seed_links = seed * (seed - 1) / 2 in
  let pool = Array.make (2 * (seed_links + (m * (n - seed)))) 0 in
  let filled = ref 0 in
  let push e =
    pool.(!filled) <- e;
    incr filled
  in
  (* Seed clique of m+1 routers so the first arrival finds m distinct
     targets. *)
  for i = 0 to seed - 1 do
    for j = i + 1 to seed - 1 do
      Builder.add_link b i j ();
      push i;
      push j
    done
  done;
  for v = seed to n - 1 do
    let picked = ref [] in
    let k = ref 0 in
    while !k < m do
      let u = pool.(Stats.Rng.int rng !filled) in
      if not (List.mem u !picked) then begin
        picked := u :: !picked;
        incr k
      end
    done;
    (* The new node's endpoints enter the pool only after all m draws:
       its own fresh links must not bias its remaining draws. *)
    List.iter
      (fun u ->
        Builder.add_link b u v ();
        push u;
        push v)
      (List.rev !picked)
  done;
  finish ~hosts b

let as_hierarchy ?(hosts = true) rng ~n =
  let core = 8 in
  let mids = 4 * core (* four regionals per core router *) in
  if n < core + mids + 1 then
    invalid_arg "Generators.as_hierarchy: n too small for the core/mid tiers";
  let b = Builder.create () in
  ignore (Builder.add_routers b n);
  (* Tier 1 — backbone: ring of core routers plus cross-chords, the
     transit-core idiom. *)
  for i = 0 to core - 1 do
    Builder.add_link b i ((i + 1) mod core) ()
  done;
  for i = 0 to core - 1 do
    let j = (i + (core / 2)) mod core in
    if not (Builder.has_link b i j) then Builder.add_link b i j ()
  done;
  (* Tier 2 — regionals: each multihomes to two distinct core routers,
     with occasional peering links between regionals. *)
  for v = core to core + mids - 1 do
    let c1 = Stats.Rng.int rng core in
    let c2 = (c1 + 1 + Stats.Rng.int rng (core - 1)) mod core in
    Builder.add_link b c1 v ();
    Builder.add_link b c2 v ();
    if v > core && Stats.Rng.float rng 1.0 < 0.3 then begin
      let peer = core + Stats.Rng.int rng (v - core) in
      if not (Builder.has_link b peer v) then Builder.add_link b peer v ()
    end
  done;
  (* Tier 3 — stubs: single-homed to a regional, a fraction
     dual-homed. *)
  for v = core + mids to n - 1 do
    let m1 = core + Stats.Rng.int rng mids in
    Builder.add_link b m1 v ();
    if Stats.Rng.float rng 1.0 < 0.3 then begin
      let m2 = core + Stats.Rng.int rng mids in
      if m2 <> m1 && not (Builder.has_link b m2 v) then
        Builder.add_link b m2 v ()
    end
  done;
  finish ~hosts b

let grid ?(hosts = true) ~rows ~cols () =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid: empty grid";
  let b = Builder.create () in
  ignore (Builder.add_routers b (rows * cols));
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then Builder.add_link b (id r c) (id r (c + 1)) ();
      if r + 1 < rows then Builder.add_link b (id r c) (id (r + 1) c) ()
    done
  done;
  finish ~hosts b

let ring ?(hosts = true) ~n () =
  if n < 3 then invalid_arg "Generators.ring: need n >= 3";
  let b = Builder.create () in
  ignore (Builder.add_routers b n);
  for i = 0 to n - 1 do
    Builder.add_link b i ((i + 1) mod n) ()
  done;
  finish ~hosts b

let star ?(hosts = true) ~spokes () =
  if spokes < 1 then invalid_arg "Generators.star: need spokes >= 1";
  let b = Builder.create () in
  ignore (Builder.add_routers b (spokes + 1));
  for i = 1 to spokes do
    Builder.add_link b 0 i ()
  done;
  finish ~hosts b

let line ?(hosts = true) ~n () =
  if n < 1 then invalid_arg "Generators.line: need n >= 1";
  let b = Builder.create () in
  ignore (Builder.add_routers b n);
  for i = 0 to n - 2 do
    Builder.add_link b i (i + 1) ()
  done;
  finish ~hosts b

let balanced_tree ?(hosts = true) ~depth ~fanout () =
  if depth < 0 then invalid_arg "Generators.balanced_tree: negative depth";
  if fanout < 1 then invalid_arg "Generators.balanced_tree: need fanout >= 1";
  let b = Builder.create () in
  let root = Builder.add_router b in
  let rec expand parent d =
    if d < depth then
      for _ = 1 to fanout do
        let child = Builder.add_router b in
        Builder.add_link b parent child ();
        expand child (d + 1)
      done
  in
  expand root 0;
  finish ~hosts b

let full_mesh ?(hosts = true) ~n () =
  if n < 1 then invalid_arg "Generators.full_mesh: need n >= 1";
  let b = Builder.create () in
  ignore (Builder.add_routers b n);
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Builder.add_link b i j ()
    done
  done;
  finish ~hosts b

let dumbbell ?(hosts = true) ~left ~right () =
  if left < 1 || right < 1 then invalid_arg "Generators.dumbbell: empty side";
  let b = Builder.create () in
  let hub_l = Builder.add_router b in
  let hub_r = Builder.add_router b in
  Builder.add_link b hub_l hub_r ();
  for _ = 1 to left do
    let s = Builder.add_router b in
    Builder.add_link b hub_l s ()
  done;
  for _ = 1 to right do
    let s = Builder.add_router b in
    Builder.add_link b hub_r s ()
  done;
  finish ~hosts b

let transit_stub ?(hosts = true) rng ~transit ~stubs_per_transit ~stub_size =
  if transit < 1 then invalid_arg "Generators.transit_stub: need transit >= 1";
  if stubs_per_transit < 0 || stub_size < 1 then
    invalid_arg "Generators.transit_stub: bad stub parameters";
  let b = Builder.create () in
  let transits = Builder.add_routers b transit in
  (* Transit core: ring plus one chord per node when big enough. *)
  let tarr = Array.of_list transits in
  let tn = Array.length tarr in
  if tn > 1 then
    for i = 0 to tn - 1 do
      let j = (i + 1) mod tn in
      if not (Builder.has_link b tarr.(i) tarr.(j)) then
        Builder.add_link b tarr.(i) tarr.(j) ()
    done;
  if tn > 3 then
    for i = 0 to tn - 1 do
      let j = (i + (tn / 2)) mod tn in
      if i <> j && not (Builder.has_link b tarr.(i) tarr.(j)) then
        Builder.add_link b tarr.(i) tarr.(j) ()
    done;
  List.iter
    (fun t ->
      for _ = 1 to stubs_per_transit do
        let stub = Builder.add_routers b stub_size in
        random_tree rng b stub;
        (* Sprinkle one extra intra-stub link for redundancy. *)
        (match stub with
        | a :: _ :: _ ->
            let c = Stats.Rng.pick rng stub in
            if a <> c && not (Builder.has_link b a c) then
              Builder.add_link b a c ()
        | _ -> ());
        let gw = Stats.Rng.pick rng stub in
        Builder.add_link b t gw ()
      done)
    transits;
  finish ~hosts b
