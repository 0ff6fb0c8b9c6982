type deadlines = { t1 : float; t2 : float }

(* All fields are floats, so OCaml stores the record flat and a write
   is a plain store: no box per refresh, and no [caml_modify] on an
   entry that has already been promoted. *)
type times = {
  mutable marked_until : float;
  mutable fresh_until : float;
  mutable expires_at : float;
}

type entry = { node : int; seq : int; tm : times; mutable epoch : int }

let entry_stale e ~now = now >= e.tm.fresh_until
let entry_dead e ~now = now >= e.tm.expires_at

let entry_marked e ~now = now < e.tm.marked_until

let make dl ~now ~seq ~fresh_until node =
  {
    node;
    seq;
    tm =
      { marked_until = neg_infinity; fresh_until; expires_at = now +. dl.t2 };
    epoch = 0;
  }

let entry dl ~now node = make dl ~now ~seq:0 ~fresh_until:(now +. dl.t1) node
let stamp e ~epoch = if epoch > e.epoch then e.epoch <- epoch

let refresh_entry e dl ~now =
  e.tm.fresh_until <- now +. dl.t1;
  e.tm.expires_at <- now +. dl.t2

let force_stale e ~now = e.tm.fresh_until <- Float.min e.tm.fresh_until now

(* [with] always builds a fresh record, the times included. *)
let copy_entry e = { e with tm = { e.tm with expires_at = e.tm.expires_at } }

(* For [i < len], [vals.(i)] is the entry of node [keys.(i)],
   ascending by node, and [next] is the next install-order number.
   Lookups scan the keys without allocating, [filter] compacts in
   place, and lists come out in node order. *)
module Table = struct
  type t = {
    mutable keys : int array;
    mutable vals : entry array;
    mutable len : int;
    mutable next : int;
  }

  let create () = { keys = [||]; vals = [||]; len = 0; next = 0 }
  let size t = t.len
  let is_empty t = t.len = 0

  (* The first position whose key is not below [n]. *)
  let position t n =
    let i = ref 0 in
    while !i < t.len && t.keys.(!i) < n do
      incr i
    done;
    !i

  (* A node's position, or [-1]. *)
  let index t n =
    let i = position t n in
    if i < t.len && t.keys.(i) = n then i else -1

  let mem t n = index t n >= 0
  let find t n = match index t n with -1 -> None | i -> Some t.vals.(i)

  (* A new entry for a node with none, next in install order. *)
  let insert t dl ~now ~fresh_until n =
    let e = make dl ~now ~seq:t.next ~fresh_until n and i = position t n in
    t.next <- t.next + 1;
    if t.len = Array.length t.keys then begin
      t.keys <- Array.append t.keys (Array.make (max 4 t.len) 0);
      t.vals <- Array.append t.vals (Array.make (max 4 t.len) e)
    end;
    Array.blit t.keys i t.keys (i + 1) (t.len - i);
    Array.blit t.vals i t.vals (i + 1) (t.len - i);
    t.keys.(i) <- n;
    t.vals.(i) <- e;
    t.len <- t.len + 1;
    e

  let filter t keep =
    let j = ref 0 in
    for i = 0 to t.len - 1 do
      if keep t.vals.(i) then begin
        t.keys.(!j) <- t.keys.(i);
        t.vals.(!j) <- t.vals.(i);
        incr j
      end
    done;
    t.len <- !j

  let keys_where t f =
    let acc = ref [] in
    for i = t.len - 1 downto 0 do
      if f t.vals.(i) then acc := t.keys.(i) :: !acc
    done;
    !acc

  let entries t = List.init t.len (fun i -> t.vals.(i))

  let add_fresh t dl ~now n =
    match index t n with
    | -1 -> insert t dl ~now ~fresh_until:(now +. dl.t1) n
    | i ->
        refresh_entry t.vals.(i) dl ~now;
        t.vals.(i)

  (* An existing entry gets only its t2 refreshed; t1 is "kept
     expired", i.e. left alone: a stale-style refresh never freshens
     t1, but it must not expire a t1 that fresh-style refreshes are
     keeping alive either. *)
  let add_stale t dl ~now n =
    match index t n with
    | -1 -> insert t dl ~now ~fresh_until:now n
    | i ->
        t.vals.(i).tm.expires_at <- now +. dl.t2;
        t.vals.(i)

  let refresh t dl ~now n =
    let i = index t n in
    if i >= 0 then refresh_entry t.vals.(i) dl ~now;
    i >= 0

  (* The mark is soft state like everything else: it decays at t1
     unless re-asserted.  t2 is deliberately untouched — a marked
     entry not refreshed through the fresh path must die. *)
  let mark t dl ~now n =
    let i = index t n in
    if i >= 0 then t.vals.(i).tm.marked_until <- now +. dl.t1;
    i >= 0

  let remove t n = filter t (fun e -> e.node <> n)
  let clear t = t.len <- 0

  (* Deep copy: independent entry records (entries are mutable) and
     the same install-order counter, so every projection — including
     [in_order] and [first_fresh] — is preserved exactly.  This is the
     checkpoint primitive of the verification layer. *)
  let copy t =
    let vals = Array.init t.len (fun i -> copy_entry t.vals.(i)) in
    { t with keys = Array.sub t.keys 0 t.len; vals }

  let expire t ~now = filter t (fun e -> not (entry_dead e ~now))
  let live_nodes t ~now = keys_where t (fun e -> not (entry_dead e ~now))
  let all_dead t ~now = live_nodes t ~now = []
  let nodes t = keys_where t (fun _ -> true)
  let in_order t = List.sort (fun a b -> compare a.seq b.seq) (entries t)

  let data_targets t ~now =
    keys_where t (fun e -> not (entry_dead e ~now || entry_marked e ~now))

  let fresh_targets t ~now =
    keys_where t (fun e -> not (entry_dead e ~now || entry_stale e ~now))

  let mem_live t ~now n =
    let i = index t n in
    i >= 0 && not (entry_dead t.vals.(i) ~now)

  let first_fresh t ~now =
    List.find_map
      (fun e -> if entry_dead e ~now || entry_stale e ~now then None else Some e.node)
      (in_order t)
end
