type t = { source : int; group : Class_d.t }

let make ~source ~group = { source; group }

(* One allocator per source, created on demand.  Deterministic: the
   k-th channel of a given source always gets the same group. *)
let allocators : (int, Class_d.allocator) Hashtbl.t = Hashtbl.create 16

let fresh ~source =
  let alloc =
    match Hashtbl.find_opt allocators source with
    | Some a -> a
    | None ->
        let a = Class_d.allocator () in
        Hashtbl.add allocators source a;
        a
  in
  { source; group = Class_d.allocate alloc }

let source t = t.source
let group t = t.group

(* Node ids are small non-negative ints and group addresses live in
   232/8, so packing [source] above the 32 group bits is injective and
   fits a 63-bit OCaml int.  [Int32.to_int] can sign-extend; the mask
   normalises to the raw 32-bit pattern.  Allocation-free. *)
let key t =
  (t.source lsl 32) lor (Int32.to_int (Class_d.to_int32 t.group) land 0xFFFFFFFF)
