type t = { cdf : float array }

let create ?(s = 1.0) ~n () =
  if n < 1 then invalid_arg "Zipf.create: need n >= 1";
  if s < 0.0 then invalid_arg "Zipf.create: negative exponent";
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i wi ->
      acc := !acc +. wi;
      cdf.(i) <- !acc /. total)
    w;
  (* Pin the tail so a draw of u -> 1.0 cannot fall off the end. *)
  cdf.(n - 1) <- 1.0;
  { cdf }

let n t = Array.length t.cdf
let pmf t k = if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)
