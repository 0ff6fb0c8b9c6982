(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014.  The gamma (stream
   increment) is fixed to the golden-ratio constant for the main
   stream; [split] derives a new stream by mixing the child seed with
   a secondary finalizer, which is the standard splittable scheme. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix64variant13 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 33)

let create seed = { state = mix64variant13 (Int64.of_int seed) }

let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let child = bits64 t in
  { state = mix64variant13 child }

(* Order-free stream derivation.  Unlike [split], which advances the
   parent (so the child stream depends on how many splits preceded
   it), [derive] is a pure hash of [(seed, index)]: run i gets the
   same stream no matter which runs came before it or on which domain
   it executes.  The scheme is the splitmix one — jump the finalized
   seed along the Weyl sequence by [index] gammas, then finalize with
   the secondary mixer exactly as [split] does for its children. *)
let derive ~seed ~index =
  let s = mix64variant13 (Int64.of_int seed) in
  let s = mix64 (Int64.add s (Int64.mul golden_gamma (Int64.of_int index))) in
  { state = mix64variant13 s }

(* Two-level derivation for nested sweeps (e.g. group-size x run):
   a second Weyl jump with an independent odd constant before the
   final mix, so [derive2 ~a ~b] collides with neither [derive ~index]
   nor [derive2] at any other [(a, b)] in practice. *)
let derive2 ~seed ~a ~b =
  let s = mix64variant13 (Int64.of_int seed) in
  let s = mix64 (Int64.add s (Int64.mul golden_gamma (Int64.of_int a))) in
  let s = mix64 (Int64.add s (Int64.mul 0xBF58476D1CE4E5B9L (Int64.of_int b))) in
  { state = mix64variant13 s }

(* Non-negative 62-bit value, convenient for native ints. *)
let bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the largest multiple of [bound] that fits
     in 62 bits, so every residue is equally likely. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let rec draw () =
    let v = bits t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits scaled to [0, 1), then to [0, bound). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (float_of_int v *. (1.0 /. 9007199254740992.0))

let exponential t mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let rec positive () =
    let u = float t 1.0 in
    if u > 0.0 then u else positive ()
  in
  -.mean *. log (positive ())

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample: need 0 <= k <= n";
  if n <= 1024 || 4 * k >= n then begin
    (* Partial Fisher–Yates: shuffle only the first [k] slots. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = i + int t (n - i) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.to_list (Array.sub a 0 k)
  end
  else begin
    (* The same partial Fisher–Yates over a sparse displacement map
       (absent key = still holds its own index), so k ≪ n costs O(k)
       instead of materialising all n slots.  Draw sequence and output
       are bit-identical to the dense branch: iteration i reads slot
       j = i + int t (n - i) and parks slot i's occupant there, and
       slots below i are never read again. *)
    let m = Hashtbl.create (2 * k) in
    let get i = Option.value ~default:i (Hashtbl.find_opt m i) in
    let out = Array.make k 0 in
    for i = 0 to k - 1 do
      let j = i + int t (n - i) in
      let vj = get j in
      Hashtbl.replace m j (get i);
      out.(i) <- vj
    done;
    Array.to_list out
  end

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l ->
      (* One traversal (list to array) and an O(1) index — the old
         List.length + List.nth walked the list twice.  Exactly one
         [int] draw regardless of length (even 1), as before, so
         seeded draw sequences are unchanged. *)
      let a = Array.of_list l in
      a.(int t (Array.length a))
