(** Byte-addressable main memory holding the simulated program's data.

    This is the *functional* half of the memory system: it stores actual
    bytes so that the CPU interpreter and the accelerator engine compute real
    values (their architectural results are compared in the test suite).
    Timing lives in {!Cache} / {!Hierarchy}.

    All accesses are little-endian, matching RISC-V. Word values are exchanged
    as native ints sign-extended from 32 bits.

    {b Page model.} Memory is a table of 4 KiB pages. Every page starts as
    one shared, read-only zero page; the first store into a page gives it a
    private zeroed page. An access that straddles a page boundary is served
    byte by byte. Untouched pages are never allocated or scanned, so
    {!create}, {!copy}, {!restore}, {!equal} and {!checksum} cost one table
    slot per page plus work proportional to the pages that were stored to,
    not to [size]. *)

type t

val create : ?size:int -> unit -> t
(** [create ~size ()] is [size] bytes of zeroed memory (default 16 MiB;
    [size] is exposed for tests). Only the page table is allocated; pages
    follow on first store. *)

val release : t -> unit
(** Drop every page, so [t] reads as freshly created memory again and its
    pages can be collected. Never needed for correctness: a memory that
    goes out of scope is collected as a whole. *)

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
    and the accelerator. Copies only the pages that were stored to; the two
    memories never share a writable page. *)

val restore : t -> from:t -> unit
(** Overwrite [t]'s contents with a checkpoint previously taken by {!copy}
    (sizes must match) — in-place, so existing handles on [t] stay valid.
    Used to roll back a fault-corrupted execution window. *)

val equal : t -> t -> bool
(** Byte-wise equality, for functional-equivalence checks. Memories of
    different sizes are unequal. A page stored to but holding only zeros
    equals an untouched one. *)

val checksum : t -> int
(** FNV-1a over the full contents, folded to a non-negative int — a compact
    fingerprint of final memory for golden tests. Platform-stable on any
    64-bit build. An untouched page is folded in one multiply, with the
    same result as hashing its 4096 zero bytes. *)

val blit_words : t -> int -> int array -> unit
(** [blit_words t addr ws] stores consecutive words starting at [addr]. *)

val blit_floats : t -> int -> float array -> unit
(** Store consecutive float32 values. *)

val read_words : t -> int -> int -> int array
(** [read_words t addr n] reads [n] consecutive sign-extended words. *)
