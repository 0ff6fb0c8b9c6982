module type TABLE = sig
  type t

  val sweep : t -> now:float -> t option
  val copy : t -> t
end

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
