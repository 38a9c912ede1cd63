(** Functional RV32IMF interpreter — the architectural reference.

    Every other execution substrate in the repo (the OoO timing model, the
    accelerator engine, the baselines) is validated against this
    interpreter: same program, same initial state, same final registers and
    memory.

    The interpreter reports each retired instruction through an optional
    callback carrying its dynamic facts (effective address, branch
    direction), which is exactly the information MESA's monitoring hardware
    taps at the decode/commit stages. *)

(** Why execution stopped. *)
type halt =
  | Exited           (** PC left the program's address range *)
  | Ecall_halt       (** an [ecall]/[ebreak] was retired *)
  | Step_limit       (** the [max_steps] budget ran out *)
  | Fault of string  (** decode or memory fault *)

(** One retired dynamic instruction. *)
type event = {
  addr : int;             (** instruction address *)
  instr : Isa.t;
  mem_addr : int option;  (** effective address for memory ops *)
  taken : bool option;    (** direction for conditional branches *)
  next_pc : int;
}

val step : Program.t -> Machine.t -> (event, halt) result
(** Execute the instruction at [Machine.pc], updating state. *)

val run :
  ?max_steps:int ->
  ?on_event:(event -> unit) ->
  Program.t ->
  Machine.t ->
  halt * int
(** [run prog m] steps until a halt condition, returning the reason and the
    number of instructions retired. [max_steps] defaults to 100 million
    and is exposed for tests. Without [on_event] no event is built. *)

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
