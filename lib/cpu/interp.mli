(** Functional RV32IMF interpreter — the architectural reference.

    Every other execution substrate in the repo (the OoO timing model, the
    accelerator engine, the baselines) is validated against this
    interpreter: same program, same initial state, same final registers and
    memory.

    {!run} executes a whole program untimed. The building blocks below it
    ({!slot}, {!dynamic_fact}, {!exec}) are what {!Cpu_run.step} composes
    into the timed step: the dynamic facts it reads before executing are
    exactly the information MESA's monitoring hardware taps at the
    decode/commit stages. *)

(** Why execution stopped. *)
type halt =
  | Exited           (** PC left the program's address range *)
  | Ecall_halt       (** an [ecall]/[ebreak] was retired *)
  | Step_limit       (** the [max_steps] budget ran out *)
  | Fault of string  (** decode or memory fault *)

val run : ?max_steps:int -> Program.t -> Machine.t -> halt * int
(** [run prog m] steps until a halt condition, returning the reason and the
    number of instructions retired. [max_steps] defaults to 100 million
    and is exposed for tests. *)

(** {1 Stepping} *)

val slot : Isa.t array -> int -> int -> int
(** [slot code base pc]: the index in [code] ({!Program.code}, loaded at
    [base]) of the instruction at [pc], or -1 when [pc] is outside the
    program or off a word boundary — where execution exits. *)

val dynamic_fact : Machine.t -> Isa.t -> int
(** The one dynamic fact an instruction has, in the current register state:
    a load's or store's effective address, a conditional branch's direction
    (1 taken, 0 not), 0 for every other instruction. Read it before {!exec}:
    a load may overwrite its own base. *)

val exec : Machine.t -> int -> Isa.t -> int
(** [exec m pc instr] executes [instr], fetched at [pc], on [m]'s registers
    and memory and returns the next PC; [m.pc] is left to the caller.
    [ecall] and [ebreak] execute as no-ops: halting on them is the caller's
    decision. A memory fault raises [Invalid_argument]. *)

(** {1 32-bit arithmetic semantics}

    Exposed for reuse by the accelerator engine, which must compute the very
    same values PE-side. All functions take and return sign-extended 32-bit
    native ints. The float operations are inlined at their call sites, so
    neither their float arguments nor their float results are boxed. *)

module Alu : sig
  val rtype : Isa.rop -> int -> int -> int
  val itype : Isa.iop -> int -> int -> int
  val branch_taken : Isa.bop -> int -> int -> bool
  val ftype : Isa.fop -> float -> float -> float
  val fcmp : Isa.fcmp -> float -> float -> int
  val fcvt_w_s : float -> int
  val fcvt_s_w : int -> float
  val fmv_x_w : float -> int
  val fmv_w_x : int -> float

  val load : Isa.lop -> Main_memory.t -> int -> int
  (** [load op mem addr]: the width-[op] load at [addr], sign- or
      zero-extended as [op] says. *)

  val store : Isa.sop -> Main_memory.t -> int -> int -> unit
  (** [store op mem addr v]: the low bytes of [v] that [op] stores. *)
end
