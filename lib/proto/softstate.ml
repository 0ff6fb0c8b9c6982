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

module Table = struct
  module A = Node_tables.Sorted

  type t = entry A.t

  let create () = A.create ~first_seq:0
  let size (t : t) = t.len
  let is_empty (t : t) = t.len = 0
  let mem t n = A.index t n >= 0
  let find t n = match A.index t n with -1 -> None | i -> Some t.vals.(i)

  let add_fresh t dl ~now n =
    match A.index t n with
    | -1 ->
        A.add t n (fun seq -> make dl ~now ~seq ~fresh_until:(now +. dl.t1) n)
    | i ->
        refresh_entry t.vals.(i) dl ~now;
        t.vals.(i)

  (* An existing entry gets only its t2 refreshed; t1 is "kept
     expired", i.e. left alone: a stale-style refresh never freshens
     t1, but it must not expire a t1 that fresh-style refreshes are
     keeping alive either. *)
  let add_stale t dl ~now n =
    match A.index t n with
    | -1 -> A.add t n (fun seq -> make dl ~now ~seq ~fresh_until:now n)
    | i ->
        t.vals.(i).tm.expires_at <- now +. dl.t2;
        t.vals.(i)

  let refresh t dl ~now n =
    let i = A.index t n in
    if i >= 0 then refresh_entry t.vals.(i) dl ~now;
    i >= 0

  (* The mark is soft state like everything else: it decays at t1
     unless re-asserted.  t2 is deliberately untouched — a marked
     entry not refreshed through the fresh path must die. *)
  let mark t dl ~now n =
    let i = A.index t n in
    if i >= 0 then t.vals.(i).tm.marked_until <- now +. dl.t1;
    i >= 0

  let remove = A.remove
  let clear = A.clear

  (* Deep copy: independent entry records (entries are mutable) and
     the same install-order counter, so every projection — including
     [in_order] and [first_fresh] — is preserved exactly.  This is the
     checkpoint primitive of the verification layer. *)
  let copy t = A.copy t copy_entry
  let expire t ~now = A.filter t (fun _ e -> not (entry_dead e ~now))
  let live_nodes t ~now = A.keys_where t (fun e -> not (entry_dead e ~now))
  let all_dead t ~now = live_nodes t ~now = []
  let nodes t = A.keys_where t (fun _ -> true)
  let entries = A.to_list
  let in_order t = List.sort (fun a b -> compare a.seq b.seq) (A.to_list t)

  let data_targets t ~now =
    A.keys_where t (fun e -> not (entry_dead e ~now || entry_marked e ~now))

  let fresh_targets t ~now =
    A.keys_where t (fun e -> not (entry_dead e ~now || entry_stale e ~now))

  let mem_live t ~now n =
    let i = A.index t n in
    i >= 0 && not (entry_dead t.vals.(i) ~now)

  let first_fresh t ~now =
    List.find_map
      (fun e -> if entry_dead e ~now || entry_stale e ~now then None else Some e.node)
      (in_order t)
end
