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

let cost g p =
  List.fold_left (fun acc (u, v) -> acc + Topology.Graph.cost g u v) 0 (links p)

let hops p = max 0 (List.length p - 1)

let valid g p =
  let adjacent = List.for_all (fun (u, v) -> Topology.Graph.connected g u v) (links p) in
  let no_repeat =
    let sorted = List.sort compare p in
    let rec distinct = function
      | a :: (b :: _ as rest) -> a <> b && distinct rest
      | [ _ ] | [] -> true
    in
    distinct sorted
  in
  adjacent && no_repeat

let reverse = List.rev

let pp ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
    Format.pp_print_int ppf p
