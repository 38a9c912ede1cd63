type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  raw mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform mantissa bits scaled to [0, bound). *)
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  raw /. 9007199254740992.0 *. bound

let float_in t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

