(* Non-expiring per-node entry tables: the hard-state counterpart of
   Softstate.Table.  Entries carry no deadlines — they are installed
   and removed only by explicit protocol events (a reliable control
   message, a neighbor-death sweep, a crash wipe), never by the
   passage of time. *)

type entry = { node : int; seq : int }

module Table = struct
  module A = Node_tables.Sorted

  type t = entry A.t

  let create () = A.create ~first_seq:1
  let size (t : t) = t.len
  let is_empty (t : t) = t.len = 0
  let mem t node = A.index t node >= 0
  let find t n = match A.index t n with -1 -> None | i -> Some t.vals.(i)

  let add t node =
    let i = A.index t node in
    if i >= 0 then t.vals.(i) else A.add t node (fun seq -> { node; seq })

  let remove = A.remove
  let clear = A.clear
  let copy t = A.copy t Fun.id (* entries are immutable *)
  let nodes t = A.keys_where t (fun _ -> true)
  let entries = A.to_list
  let in_order t = List.sort (fun a b -> compare a.seq b.seq) (A.to_list t)
end
