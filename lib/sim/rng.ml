type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix64 (Int64.of_int seed) }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = next t }

let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let float t =
  let mantissa = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int mantissa *. (1.0 /. 9007199254740992.0)

let flip t ~p = float t < p
