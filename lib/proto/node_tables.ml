module type TABLE = sig
  type t

  val sweep : t -> now:float -> t option
  val copy : t -> t
end

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* One multiply spreads every key bit upward; folding the high half
     back down lets the low bits the bucket index keeps see them all. *)
  let hash x =
    let h = x * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 32)
end)

module Make (T : TABLE) = struct
  type t = (int, T.t) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let find (t : t) n = Hashtbl.find_opt t n
  let set (t : t) n tb = Hashtbl.replace t n tb
  let release (t : t) n = Hashtbl.remove t n
  let sweep t ~now = Hashtbl.filter_map_inplace (fun _ tb -> T.sweep tb ~now) t

  let copy (t : t) : t =
    let c = Hashtbl.create (max 8 (Hashtbl.length t)) in
    Hashtbl.iter (fun n tb -> Hashtbl.replace c n (T.copy tb)) t;
    c

  let to_list t =
    Hashtbl.fold (fun n tb acc -> (n, tb) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end
