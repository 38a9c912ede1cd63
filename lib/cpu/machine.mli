(** Architectural state of one RV32IMF hart: 32 integer registers, 32
    single-precision FP registers, the PC and a handle on main memory.

    Integer registers hold native ints that are always sign-extended 32-bit
    values; FP registers hold floats that are always exactly representable in
    single precision. These invariants are maintained by every writer
    (interpreter and accelerator engine). *)

type t = {
  xregs : int array;
  fregs : float array;
  mutable pc : int;
  mem : Main_memory.t;
}

val create : ?pc:int -> Main_memory.t -> t
(** Fresh state with zeroed registers, starting at [pc] (default 0x1000,
    the program base; exposed for tests). *)

val get_x : t -> Reg.t -> int
(** Read an integer register; [x0] always reads 0. *)

val set_x : t -> Reg.t -> int -> unit
(** Write an integer register (sign-extending to 32 bits); writes to [x0]
    are discarded. *)

val get_f : t -> Reg.t -> float
val set_f : t -> Reg.t -> float -> unit
(** Write an FP register, rounding to single precision. *)

val set_args : t -> (Reg.t * int) list -> unit
(** Convenience: write several integer registers (kernel arguments). *)

val set_fargs : t -> (Reg.t * float) list -> unit

val copy : t -> ?mem:Main_memory.t -> unit -> t
(** Copy the register state; memory is shared unless a replacement is
    given. *)

val restore : t -> from:t -> unit
(** Overwrite [t]'s registers and PC from a checkpoint taken by {!copy}
    (memory is untouched — restore it separately with
    {!Main_memory.restore}). Used to roll back a fault-corrupted window. *)

val arch_equal : t -> t -> bool
(** Equality of registers and PC (not memory); used by equivalence tests. *)

val round32 : float -> float
(** Round a float to the nearest single-precision value. *)

val to_s32 : int -> int
(** Sign-extend the low 32 bits. *)

val to_u32 : int -> int
(** Zero-extend the low 32 bits. *)
