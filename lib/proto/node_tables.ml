module type TABLE = sig
  type t

  val create : unit -> t
  val sweep : t -> now:float -> unit
  val is_empty : t -> bool
  val copy : t -> t
end

module Make (T : TABLE) = struct
  type t = (int, T.t) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let find (t : t) n = Hashtbl.find_opt t n

  let attach t n =
    match Hashtbl.find_opt t n with
    | Some tb -> tb
    | None ->
        let tb = T.create () in
        Hashtbl.replace t n tb;
        tb

  let release t n =
    match Hashtbl.find_opt t n with
    | Some tb when T.is_empty tb -> Hashtbl.remove t n
    | Some _ | None -> ()

  let sweep t ~now =
    Hashtbl.filter_map_inplace
      (fun _ tb ->
        T.sweep tb ~now;
        if T.is_empty tb then None else Some tb)
      t

  let copy (t : t) : t =
    let c = Hashtbl.create (max 8 (Hashtbl.length t)) in
    Hashtbl.iter (fun n tb -> Hashtbl.replace c n (T.copy tb)) t;
    c

  let to_list t =
    Hashtbl.fold (fun n tb acc -> (n, tb) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end
