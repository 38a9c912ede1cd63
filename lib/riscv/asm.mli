(** An embedded assembler for writing the benchmark kernels.

    The builder accumulates instructions; branch and jump targets are given
    as label strings and resolved when {!assemble} is called. Mnemonic
    helpers mirror RISC-V assembly operand order ([op rd, rs1, rs2];
    loads/stores as [op rd, off(base)]), so a kernel reads like the .s file
    the paper's toolchain would produce.

    Example:
    {[
      let b = Asm.create () in
      Asm.li b Reg.t0 0;
      Asm.label b "loop";
      Asm.lw b Reg.t1 0 Reg.a0;
      Asm.add b Reg.t2 Reg.t2 Reg.t1;
      Asm.addi b Reg.a0 Reg.a0 4;
      Asm.addi b Reg.t0 Reg.t0 1;
      Asm.blt b Reg.t0 Reg.a1 "loop";
      Asm.assemble b
    ]} *)

type t

val create : ?base:int -> unit -> t
(** Fresh builder; code will be placed at [base] (default 0x1000; exposed
    for tests). *)

val label : t -> string -> unit
(** Define a label at the current position. *)

val pragma : t -> Program.pragma -> unit
(** Attach an OpenMP-style annotation to the address of the next emitted
    instruction (the loop entry). *)

val here : t -> int
(** Address of the next instruction to be emitted. *)

val emit : t -> Isa.t -> unit
(** Append a fully-resolved instruction. *)

val assemble : t -> Program.t
(** Resolve all label references and produce the program.
    @raise Failure on an undefined label or an out-of-range resolved offset. *)

(** {1 Integer register-register} *)

val add : t -> Reg.t -> Reg.t -> Reg.t -> unit
val sub : t -> Reg.t -> Reg.t -> Reg.t -> unit
val sll : t -> Reg.t -> Reg.t -> Reg.t -> unit
val slt : t -> Reg.t -> Reg.t -> Reg.t -> unit
val sltu : t -> Reg.t -> Reg.t -> Reg.t -> unit
val xor : t -> Reg.t -> Reg.t -> Reg.t -> unit
val srl : t -> Reg.t -> Reg.t -> Reg.t -> unit
val sra : t -> Reg.t -> Reg.t -> Reg.t -> unit
val or_ : t -> Reg.t -> Reg.t -> Reg.t -> unit
val and_ : t -> Reg.t -> Reg.t -> Reg.t -> unit
val mul : t -> Reg.t -> Reg.t -> Reg.t -> unit
val mulh : t -> Reg.t -> Reg.t -> Reg.t -> unit
val div : t -> Reg.t -> Reg.t -> Reg.t -> unit
val divu : t -> Reg.t -> Reg.t -> Reg.t -> unit
val rem : t -> Reg.t -> Reg.t -> Reg.t -> unit
val remu : t -> Reg.t -> Reg.t -> Reg.t -> unit

(** {1 Integer register-immediate} *)

val addi : t -> Reg.t -> Reg.t -> int -> unit
val slti : t -> Reg.t -> Reg.t -> int -> unit
val sltiu : t -> Reg.t -> Reg.t -> int -> unit
val xori : t -> Reg.t -> Reg.t -> int -> unit
val ori : t -> Reg.t -> Reg.t -> int -> unit
val andi : t -> Reg.t -> Reg.t -> int -> unit
val slli : t -> Reg.t -> Reg.t -> int -> unit
val srli : t -> Reg.t -> Reg.t -> int -> unit
val srai : t -> Reg.t -> Reg.t -> int -> unit

(** {1 Memory: [op b rd off base]} *)

val lw : t -> Reg.t -> int -> Reg.t -> unit
val lh : t -> Reg.t -> int -> Reg.t -> unit
val lb : t -> Reg.t -> int -> Reg.t -> unit
val lhu : t -> Reg.t -> int -> Reg.t -> unit
val lbu : t -> Reg.t -> int -> Reg.t -> unit
val sw : t -> Reg.t -> int -> Reg.t -> unit
val sh : t -> Reg.t -> int -> Reg.t -> unit
val sb : t -> Reg.t -> int -> Reg.t -> unit
val flw : t -> Reg.t -> int -> Reg.t -> unit
val fsw : t -> Reg.t -> int -> Reg.t -> unit

(** {1 Control flow with label targets} *)

val beq : t -> Reg.t -> Reg.t -> string -> unit
val bne : t -> Reg.t -> Reg.t -> string -> unit
val blt : t -> Reg.t -> Reg.t -> string -> unit
val bge : t -> Reg.t -> Reg.t -> string -> unit
val bltu : t -> Reg.t -> Reg.t -> string -> unit
val bgeu : t -> Reg.t -> Reg.t -> string -> unit
val jal : t -> Reg.t -> string -> unit
val j : t -> string -> unit
val jalr : t -> Reg.t -> Reg.t -> int -> unit
val ret : t -> unit

(** {1 Upper immediates and pseudo-instructions} *)

val lui : t -> Reg.t -> int -> unit
(** [lui b rd v]: [v] is the final register value; its low 12 bits must be
    zero. *)

val auipc : t -> Reg.t -> int -> unit
val li : t -> Reg.t -> int -> unit
(** Load a full 32-bit constant (expands to [lui]+[addi] when needed). *)

val mv : t -> Reg.t -> Reg.t -> unit
val nop : t -> unit
val ecall : t -> unit
val ebreak : t -> unit

(** {1 Floating point} *)

val fadd : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fsub : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fmul : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fdiv : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fsqrt : t -> Reg.t -> Reg.t -> unit
val fmin : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fmax : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fsgnj : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fmv : t -> Reg.t -> Reg.t -> unit
(** FP move, expands to [fsgnj fd fs fs]. *)

val feq : t -> Reg.t -> Reg.t -> Reg.t -> unit
val flt : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fle : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fcvt_w_s : t -> Reg.t -> Reg.t -> unit
val fcvt_s_w : t -> Reg.t -> Reg.t -> unit
val fmv_x_w : t -> Reg.t -> Reg.t -> unit
val fmv_w_x : t -> Reg.t -> Reg.t -> unit
