(** An assembled program: contiguous RV32IMF code at a base address, plus the
    symbol table and OpenMP-style loop annotations the paper relies on.

    MESA itself only ever sees machine code; the pragma list models the
    OpenMP annotations (§4.3) that survive compilation as metadata telling
    the hardware a given loop is fully parallelizable. *)

(** Parallelism annotation of a loop, keyed by the loop's entry address. *)
type pragma =
  | Omp_parallel  (** iterations are independent; tiling is legal *)
  | Omp_simd      (** iterations are independent and vectorizable *)

type t

val make :
  ?base:int ->
  ?symbols:(string * int) list ->
  ?pragmas:(int * pragma) list ->
  Isa.t array ->
  t
(** [make code] builds a program whose entry is its [base] (default 0x1000;
    exposed for tests). Symbol and pragma addresses are absolute. *)

val base : t -> int
val entry : t -> int

val code : t -> Isa.t array
(** The raw instruction array (do not mutate). *)

val fetch : t -> int -> Isa.t option
(** [fetch t addr] is the instruction at byte address [addr], or [None] if
    out of range or misaligned. *)

val fetch_exn : t -> int -> Isa.t

val index_of_addr : t -> int -> int
(** [index_of_addr t addr] is the instruction index for an in-range aligned
    address. Raises [Invalid_argument] otherwise. *)

val addr_of_index : t -> int -> int

val symbol : t -> string -> int
(** Address of a label. Raises [Not_found] if absent. *)

val pragma_at : t -> int -> pragma option
(** Annotation attached to the loop whose entry is at the given address. *)

val words : t -> int32 array
(** Binary encoding of the whole program, for loading into instruction
    memory. *)

val of_words : ?base:int -> int32 array -> (t, string) result
(** Decode a binary image back into a program (no symbols/pragmas).
    Exposed for tests. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing with addresses and labels. *)
