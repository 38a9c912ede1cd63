(** Seeded exponential backoff with full jitter, for the service's retry
    ladder.

    Attempt [k] draws a delay uniformly from
    [\[0, min (cap_ms, base_ms * factor^k))] using one splitmix PRNG, so a
    request's whole retry schedule is a pure function of its seed — the
    load generator's determinism digest relies on this (delays affect only
    wall-clock latency, which the digest excludes, but the *number* of
    draws must still be reproducible). *)

type t

val create :
  ?base_ms:float -> ?cap_ms:float -> ?factor:float -> seed:int -> unit -> t
(** Defaults: base 1 ms, cap 20 ms, factor 2. Raises [Invalid_argument] on
    a non-positive base/cap or a factor below 1. *)

val next_ms : t -> float
(** The jittered delay for the next attempt, advancing the attempt
    counter. *)
