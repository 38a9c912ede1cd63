(** Seeded exponential backoff with full jitter, for the service's retry
    ladder.

    Attempt [k] draws a delay uniformly from
    [\[0, min (cap_ms, base_ms * 2^k))] using one splitmix PRNG, so a
    request's whole retry schedule is a pure function of its seed — the
    load generator's determinism digest relies on this (delays affect only
    wall-clock latency, which the digest excludes, but the *number* of
    draws must still be reproducible). *)

type t

val create : base_ms:float -> cap_ms:float -> seed:int -> t
(** Raises [Invalid_argument] on a non-positive base or a cap below the
    base. *)

val next_ms : t -> float
(** The jittered delay for the next attempt, advancing the attempt
    counter. *)
