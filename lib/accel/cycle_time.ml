(* Each helper is exact on the timing plane's domain (see the interface):
   with no NaN and no -0.0 a plain comparison orders like Float.max and
   Float.min, and below 2^62 [int_of_float] truncates a non-negative value
   to its floor exactly; an integral float converts back unchanged. *)

let[@inline] max (a : float) b = if a >= b then a else b
let[@inline] min (a : float) b = if a <= b then a else b
let[@inline] floor_int x = int_of_float x

let[@inline] ceil_int x =
  let i = int_of_float x in
  if float_of_int i < x then i + 1 else i
