module Imap = Map.Make (Int)

type t = { name : string; mutable data : Summary.t Imap.t }

let create name = { name; data = Imap.empty }

let name t = t.name

let observe t ~x v =
  let s =
    match Imap.find_opt x t.data with
    | Some s -> s
    | None ->
        let s = Summary.create () in
        t.data <- Imap.add x s t.data;
        s
  in
  Summary.add s v

let xs t = Imap.bindings t.data |> List.map fst

let summary t ~x = Imap.find_opt x t.data

let mean_at t ~x =
  match Imap.find_opt x t.data with Some s -> Summary.mean s | None -> nan

let points t = Imap.bindings t.data |> List.map (fun (x, s) -> (x, Summary.mean s))

type group = {
  title : string;
  x_label : string;
  y_label : string;
  series : t list;
}

let group ?(title = "") ?(x_label = "x") ?(y_label = "y") series =
  { title; x_label; y_label; series }

let group_series g = g.series

let all_xs g =
  List.fold_left
    (fun acc s -> List.fold_left (fun acc x -> Imap.add x () acc) acc (xs s))
    Imap.empty g.series
  |> Imap.bindings |> List.map fst

let render ppf g =
  let xs = all_xs g in
  let headers = g.x_label :: List.map name g.series in
  let rows =
    List.map
      (fun x ->
        string_of_int x
        :: List.map
             (fun s ->
               match summary s ~x with
               | Some sm -> Printf.sprintf "%.2f" (Summary.mean sm)
               | None -> "-")
             g.series)
      xs
  in
  if g.title <> "" then Format.fprintf ppf "%s@." g.title;
  Table.render ppf ~headers rows;
  if g.y_label <> "" then Format.fprintf ppf "(y: %s)@." g.y_label

let to_csv g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf g.x_label;
  List.iter
    (fun s ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (name s))
    g.series;
  Buffer.add_char buf '\n';
  List.iter
    (fun x ->
      Buffer.add_string buf (string_of_int x);
      List.iter
        (fun s ->
          Buffer.add_char buf ',';
          match summary s ~x with
          | Some sm -> Buffer.add_string buf (Printf.sprintf "%.6f" (Summary.mean sm))
          | None -> Buffer.add_string buf "nan")
        g.series;
      Buffer.add_char buf '\n')
    (all_xs g);
  Buffer.contents buf

let ratio g ~num ~den =
  let find n =
    match List.find_opt (fun s -> name s = n) g.series with
    | Some s -> s
    | None -> raise Not_found
  in
  let sn = find num and sd = find den in
  List.filter_map
    (fun x ->
      let n = mean_at sn ~x and d = mean_at sd ~x in
      if Float.is_nan n || Float.is_nan d || d = 0.0 then None
      else Some (x, n /. d))
    (all_xs g)
