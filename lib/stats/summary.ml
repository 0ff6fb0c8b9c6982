type t = { mutable n : int; mutable mean : float }

let create () = { n = 0; mean = 0.0 }

let add t x =
  t.n <- t.n + 1;
  t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n)

let add_int t v = add t (float_of_int v)

let mean t = if t.n = 0 then nan else t.mean
