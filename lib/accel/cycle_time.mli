(** Branch-only float helpers for the timing plane's per-firing loops.

    The plane's values are cycle times: non-negative, finite, NaN-free
    and never [-0.0] (sums and maxima of latencies, clocks and claim
    waits that start at [+0.0]), and far below [2^62]. On that domain
    each helper returns the same bits as its [Float] namesake (the
    integer ones the same value as the integral float), but as a
    compare and a branch the native compiler inlines across modules:
    OCaml 5.1's [Float.max] and [Float.min] call [caml_signbit] in C
    whenever their first comparison fails (they order [-0.0] and NaN),
    and [Float.ceil] and [Float.floor] call libm, on every in-edge, claim
    and node of every iteration. Outside the domain the results are
    unspecified. *)

val max : float -> float -> float
(** [Float.max] on the domain. *)

val min : float -> float -> float
(** [Float.min] on the domain. *)

val ceil_int : float -> int
(** [int_of_float (Float.ceil x)] on the domain. *)

val floor_int : float -> int
(** [int_of_float (Float.floor x)] on the domain. *)
