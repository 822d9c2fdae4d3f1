type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

(* Non-negative 62-bit value: OCaml ints are 63-bit, so mask to 62 bits
   to stay positive after conversion. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let rec draw () =
    let v = bits62 t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits mapped to [0, 1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (float_of_int v /. 9007199254740992.0)
