(** Deterministic sliding-window quantile sketches — the aggregation layer
    behind the live-telemetry frames.

    A sketch is a fixed-geometry log-bucketed histogram replicated over a
    ring of [windows] sub-windows. {!observe} lands in the current
    sub-window; {!advance} rotates the ring, discarding the oldest
    sub-window — so the "window" the quantile queries see always covers
    the last [windows] advances. Nothing here reads a clock: when the ring
    rotates is entirely the caller's decision, which makes every query a
    pure function of the (observation, advance) sequence — the property
    the qcheck suite pins.

    Buckets grow geometrically by ratio [r = 2{^1/4}] from a floor of
    [1e-3], so a reported quantile [q] satisfies
    [true_q <= quantile q <= max lo (true_q * r)] — a guaranteed
    ≤ 19% relative overestimate, never an underestimate. Counts and the
    window maximum are exact.

    Sketches are per process and are not serialized: a telemetry frame
    carries the quantiles it read, not the sketch. *)

type t

val create : ?windows:int -> unit -> t
(** A fresh, empty sketch: 128 log-spaced buckets per sub-window, [windows]
    (default 8) sub-windows in the ring. Raises [Invalid_argument] when
    [windows] is below 1. *)

val ratio : float
(** The fixed bucket growth ratio, [2{^1/4}] — the quantile error bound.
    Exposed for tests, which hold quantiles to this bound. *)

val floor_value : float
(** The lowest bucket's upper bound ([1e-3]); observations at or below it
    are indistinguishable. Exposed for tests, like {!ratio}. *)

val observe : t -> float -> unit
(** Record one observation into the current sub-window. Non-finite or
    negative values clamp into the floor bucket. *)

val advance : t -> unit
(** Rotate the ring: the oldest sub-window is discarded and a fresh one
    becomes current. Call on whatever cadence defines "the window" —
    telemetry uses wall-clock ticks, tests use explicit counts. *)

val window_count : t -> int
(** Observations currently inside the window (all live sub-windows). *)

val window_max : t -> float
(** Exact maximum inside the window; [0.] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0,1\]]: nearest-rank over the window's
    buckets, reported as the bucket's upper bound clamped to the exact
    window maximum. [0.] on an empty window. Raises [Invalid_argument] on
    [q] outside [\[0,1\]]. *)
