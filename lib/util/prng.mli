(** Deterministic pseudo-random number generation.

    All stochastic pieces of the simulator (workload input generation, the
    modulo-scheduler's randomized restarts, ...) draw from an explicit
    generator state so that every experiment is reproducible from a seed. The
    implementation is splitmix64, which is small, fast and has good
    statistical quality for simulation purposes. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal seeds
    yield equal streams. *)

val int : t -> int -> int
(** [int t bound] is a uniform integer in [\[0, bound)]. [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is a uniform integer in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float t bound] is a uniform float in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is a uniform float in [\[lo, hi)]. *)

val bool : t -> bool
(** A fair coin flip. *)

val bits64 : t -> int64
(** The raw next 64-bit output of the generator. *)
