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

module Sorted = struct
  type 'e t = {
    mutable keys : int array;
    mutable vals : 'e array;
    mutable len : int;
    mutable seq : int;
  }

  let create ~first_seq = { keys = [||]; vals = [||]; len = 0; seq = first_seq }

  (* The first position whose key is not below [n]. *)
  let position t n =
    let i = ref 0 in
    while !i < t.len && t.keys.(!i) < n do
      incr i
    done;
    !i

  let index t n =
    let i = position t n in
    if i < t.len && t.keys.(i) = n then i else -1

  let add t n make =
    let e = make t.seq and i = position t n in
    t.seq <- t.seq + 1;
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

  let clear t = t.len <- 0

  let copy t f =
    let vals = Array.init t.len (fun i -> f t.vals.(i)) in
    { t with keys = Array.sub t.keys 0 t.len; vals }

  let filter t keep =
    let j = ref 0 in
    for i = 0 to t.len - 1 do
      if keep t.keys.(i) t.vals.(i) then begin
        t.keys.(!j) <- t.keys.(i);
        t.vals.(!j) <- t.vals.(i);
        incr j
      end
    done;
    t.len <- !j

  let remove t n = filter t (fun k _ -> k <> n)

  let keys_where t f =
    let acc = ref [] in
    for i = t.len - 1 downto 0 do
      if f t.vals.(i) then acc := t.keys.(i) :: !acc
    done;
    !acc

  let to_list t = List.init t.len (fun i -> t.vals.(i))
end
