type t = {
  base_ms : float;
  cap_ms : float;
  factor : float;
  prng : Prng.t;
  mutable attempts : int;
}

let create ?(base_ms = 1.0) ?(cap_ms = 20.0) ?(factor = 2.0) ~seed () =
  if not (base_ms > 0.0) then invalid_arg "Backoff.create: base_ms must be > 0";
  if not (cap_ms >= base_ms) then
    invalid_arg "Backoff.create: cap_ms must be >= base_ms";
  if not (factor >= 1.0) then invalid_arg "Backoff.create: factor must be >= 1";
  { base_ms; cap_ms; factor; prng = Prng.create seed; attempts = 0 }

let next_ms t =
  let ceiling =
    Float.min t.cap_ms (t.base_ms *. (t.factor ** float_of_int t.attempts))
  in
  t.attempts <- t.attempts + 1;
  Prng.float t.prng ceiling

