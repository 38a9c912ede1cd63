type t = {
  base_ms : float;
  cap_ms : float;
  prng : Prng.t;
  mutable attempts : int;
}

(* Growth of the delay ceiling per attempt. *)
let factor = 2.0

let create ~base_ms ~cap_ms ~seed =
  if not (base_ms > 0.0) then invalid_arg "Backoff.create: base_ms must be > 0";
  if not (cap_ms >= base_ms) then
    invalid_arg "Backoff.create: cap_ms must be >= base_ms";
  { base_ms; cap_ms; prng = Prng.create seed; attempts = 0 }

let next_ms t =
  let ceiling =
    Float.min t.cap_ms (t.base_ms *. (factor ** float_of_int t.attempts))
  in
  t.attempts <- t.attempts + 1;
  Prng.float t.prng ceiling

