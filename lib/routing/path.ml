let links p =
  let rec go = function
    | u :: (v :: _ as rest) -> (u, v) :: go rest
    | [ _ ] | [] -> []
  in
  go p

(* Summed hop by hop in path order, without building the link list. *)
let delay g p =
  let rec go acc = function
    | u :: (v :: _ as rest) -> go (acc +. Topology.Graph.delay g u v) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 p

let hops p = max 0 (List.length p - 1)

let pp ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
    Format.pp_print_int ppf p
