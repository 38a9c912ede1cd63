(** The RV32IMF instruction subset understood by every layer of the repo.

    This is the ISA MESA's evaluation targets (benchmarks are cross-compiled
    to RV32G in the paper; the kernels only exercise I, M and F). Operand
    order follows the RISC-V convention: destination first, then sources.
    Immediates are stored sign-extended as native ints; branch/jump offsets
    are byte offsets relative to the instruction's own address. *)

(** Register-register integer ops (OP opcode, including the M extension). *)
type rop =
  | ADD | SUB | SLL | SLT | SLTU | XOR | SRL | SRA | OR | AND
  | MUL | MULH | MULHSU | MULHU | DIV | DIVU | REM | REMU

(** Register-immediate integer ops (OP-IMM opcode). *)
type iop = ADDI | SLTI | SLTIU | XORI | ORI | ANDI | SLLI | SRLI | SRAI

(** Conditional branches. *)
type bop = BEQ | BNE | BLT | BGE | BLTU | BGEU

(** Integer loads. *)
type lop = LB | LH | LW | LBU | LHU

(** Integer stores. *)
type sop = SB | SH | SW

(** Single-precision FP register-register ops. [FSQRT] ignores its second
    source. *)
type fop = FADD | FSUB | FMUL | FDIV | FSQRT | FMIN | FMAX | FSGNJ | FSGNJN | FSGNJX

(** FP comparisons; the result is written to an integer register. *)
type fcmp = FEQ | FLT | FLE

type t =
  | Rtype of rop * Reg.t * Reg.t * Reg.t  (** [Rtype (op, rd, rs1, rs2)] *)
  | Itype of iop * Reg.t * Reg.t * int    (** [Itype (op, rd, rs1, imm)] *)
  | Load of lop * Reg.t * Reg.t * int     (** [Load (op, rd, base, offset)] *)
  | Store of sop * Reg.t * Reg.t * int    (** [Store (op, src, base, offset)] *)
  | Branch of bop * Reg.t * Reg.t * int   (** [Branch (op, rs1, rs2, offset)] *)
  | Lui of Reg.t * int                    (** upper-20-bit immediate (pre-shifted value) *)
  | Auipc of Reg.t * int
  | Jal of Reg.t * int                    (** [Jal (rd, offset)] *)
  | Jalr of Reg.t * Reg.t * int           (** [Jalr (rd, base, offset)] *)
  | Ftype of fop * Reg.t * Reg.t * Reg.t  (** all operands in the FP file *)
  | Fcmp of fcmp * Reg.t * Reg.t * Reg.t  (** [Fcmp (op, rd_int, fs1, fs2)] *)
  | Flw of Reg.t * Reg.t * int            (** [Flw (fd, base, offset)] *)
  | Fsw of Reg.t * Reg.t * int            (** [Fsw (fsrc, base, offset)] *)
  | Fcvt_w_s of Reg.t * Reg.t             (** int rd <- float rs1 (RTZ) *)
  | Fcvt_s_w of Reg.t * Reg.t             (** float fd <- int rs1 *)
  | Fmv_x_w of Reg.t * Reg.t              (** raw bit move float -> int *)
  | Fmv_w_x of Reg.t * Reg.t              (** raw bit move int -> float *)
  | Ecall
  | Ebreak
  | Fence

(** Functional-unit class of an instruction; drives both the CPU timing model
    and the accelerator's PE capability masks (the F_op matrices of §3.3). *)
type op_class =
  | C_alu      (** single-cycle integer *)
  | C_mul      (** integer multiply *)
  | C_div      (** integer divide / remainder *)
  | C_fadd     (** FP add/sub/min/max/sign/compare/convert/move *)
  | C_fmul     (** FP multiply *)
  | C_fdiv     (** FP divide / sqrt *)
  | C_load
  | C_store
  | C_branch   (** conditional branch *)
  | C_jump     (** jal / jalr *)
  | C_system   (** ecall / ebreak / fence: never accelerable *)

val op_class : t -> op_class

val is_memory : t -> bool
(** Loads and stores of either register file. *)

val is_load : t -> bool
val is_store : t -> bool

val is_fp : t -> bool
(** Uses the FP pipeline (includes flw/fsw). *)

val writes_int : t -> Reg.t option
(** Integer destination register, if any ([x0] writes are reported as-is;
    consumers decide whether to discard them). *)

val writes_fp : t -> Reg.t option
(** FP destination register, if any. *)

val reads : t -> (Reg.t * [ `Int | `Fp ]) list
(** Source registers in operand order, tagged with their file. [x0] is
    included when architecturally read. *)

val branch_offset : t -> int option
(** Byte offset of a branch or jal, if this is one. *)

val pp : Format.formatter -> t -> unit
(** Assembly-style rendering (same output as {!Disasm.to_string}). *)
