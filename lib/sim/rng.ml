type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t = { state = bits64 t }

let copy t = { state = t.state }

(* 53 high-quality bits scaled into [0, 1). *)
let float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value always fits in a non-negative OCaml int.
     Rejection-free: modulo bias is < 2^-38 for bounds below 2^24, far
     under simulation noise. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let range t lo hi =
  if lo > hi then invalid_arg "Rng.range: lo > hi";
  lo +. ((hi -. lo) *. float t)
