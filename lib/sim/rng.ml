(* The 64-bit SplitMix state lives unboxed in an 8-byte buffer, read and
   written with the native-endian 64-bit primitives, so a draw whose
   result is an [int] or a [bool] allocates nothing: the [int64]
   intermediates stay in registers. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next t =
  let state = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 state;
  mix64 state

let split t = of_state (next t)

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  bits t mod bound

let[@inline] float t =
  let mantissa = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int mantissa *. (1.0 /. 9007199254740992.0)

let[@inline] flip t ~p = float t < p
