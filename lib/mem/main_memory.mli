(** Byte-addressable main memory holding the simulated program's data.

    This is the *functional* half of the memory system: it stores actual
    bytes so that the CPU interpreter and the accelerator engine compute real
    values (their architectural results are compared in the test suite).
    Timing lives in {!Cache} / {!Hierarchy}.

    All accesses are little-endian, matching RISC-V. Word values are exchanged
    as native ints sign-extended from 32 bits. *)

type t

val create : ?size:int -> unit -> t
(** [create ~size ()] allocates [size] bytes of zeroed memory (default
    16 MiB). Reuses a buffer parked by {!release} when one of the exact size
    is available — re-zeroed, so indistinguishable from a fresh
    allocation. *)

val release : t -> unit
(** Park [t]'s backing buffer for reuse by a later {!create} of the same
    size (any domain). The caller promises not to touch [t] afterwards —
    harness hot paths call this after a measurement's memory is fully
    consumed; ordinary callers may simply drop memories and let the GC
    collect them. *)

val size : t -> int

val load_byte : t -> int -> int
(** Sign-extended byte. *)

val load_byte_u : t -> int -> int
val load_half : t -> int -> int
(** Sign-extended halfword. *)

val load_half_u : t -> int -> int
val load_word : t -> int -> int
(** Sign-extended 32-bit word. *)

val store_byte : t -> int -> int -> unit
val store_half : t -> int -> int -> unit
val store_word : t -> int -> int -> unit

val load_float32 : t -> int -> float
(** Read 4 bytes as an IEEE-754 single; the result is exactly representable
    as an OCaml float. *)

val store_float32 : t -> int -> float -> unit
(** Round to single precision and store 4 bytes. *)

val copy : t -> t
(** Deep copy; used to run the same initial state through the CPU reference
    and the accelerator. *)

val restore : t -> from:t -> unit
(** Overwrite [t]'s contents with a checkpoint previously taken by {!copy}
    (sizes must match) — in-place, so existing handles on [t] stay valid.
    Used to roll back a fault-corrupted execution window. *)

val equal : t -> t -> bool
(** Byte-wise equality, for functional-equivalence checks. *)

val checksum : t -> int
(** FNV-1a over the full contents, folded to a non-negative int — a compact
    fingerprint of final memory for golden tests. Platform-stable on any
    64-bit build. *)

val blit_words : t -> int -> int array -> unit
(** [blit_words t addr ws] stores consecutive words starting at [addr]. *)

val blit_floats : t -> int -> float array -> unit
(** Store consecutive float32 values. *)

val read_words : t -> int -> int -> int array
(** [read_words t addr n] reads [n] consecutive sign-extended words. *)

val read_floats : t -> int -> int -> float array
