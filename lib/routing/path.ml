let links p =
  let rec go = function
    | u :: (v :: _ as rest) -> (u, v) :: go rest
    | [ _ ] | [] -> []
  in
  go p

(* A link's delay is its cost, so a path's delay is its summed cost:
   added hop by hop as ints, without building the link list or boxing
   a float per hop. *)
let delay g p =
  let rec go acc = function
    | u :: (v :: _ as rest) -> go (acc + Topology.Graph.cost g u v) rest
    | [ _ ] | [] -> float_of_int acc
  in
  go 0 p

let hops p = max 0 (List.length p - 1)

let pp ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
    Format.pp_print_int ppf p
