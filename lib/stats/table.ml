let pad s w = s ^ String.make (max 0 (w - String.length s)) ' '

let render ppf ~headers rows =
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length headers) rows
  in
  let cell row i = match List.nth_opt row i with Some c -> c | None -> "" in
  let width i =
    List.fold_left
      (fun acc row -> max acc (String.length (cell row i)))
      (String.length (cell headers i))
      rows
  in
  let widths = List.init ncols width in
  let print_row row =
    List.iteri
      (fun i w ->
        if i > 0 then Format.pp_print_string ppf "  ";
        Format.pp_print_string ppf (pad (cell row i) w))
      widths;
    Format.pp_print_newline ppf ()
  in
  print_row headers;
  let rule = List.map (fun w -> String.make w '-') widths in
  print_row rule;
  List.iter print_row rows

