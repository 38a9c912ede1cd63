type rop =
  | ADD | SUB | SLL | SLT | SLTU | XOR | SRL | SRA | OR | AND
  | MUL | MULH | MULHSU | MULHU | DIV | DIVU | REM | REMU

type iop = ADDI | SLTI | SLTIU | XORI | ORI | ANDI | SLLI | SRLI | SRAI
type bop = BEQ | BNE | BLT | BGE | BLTU | BGEU
type lop = LB | LH | LW | LBU | LHU
type sop = SB | SH | SW
type fop = FADD | FSUB | FMUL | FDIV | FSQRT | FMIN | FMAX | FSGNJ | FSGNJN | FSGNJX
type fcmp = FEQ | FLT | FLE

type t =
  | Rtype of rop * Reg.t * Reg.t * Reg.t
  | Itype of iop * Reg.t * Reg.t * int
  | Load of lop * Reg.t * Reg.t * int
  | Store of sop * Reg.t * Reg.t * int
  | Branch of bop * Reg.t * Reg.t * int
  | Lui of Reg.t * int
  | Auipc of Reg.t * int
  | Jal of Reg.t * int
  | Jalr of Reg.t * Reg.t * int
  | Ftype of fop * Reg.t * Reg.t * Reg.t
  | Fcmp of fcmp * Reg.t * Reg.t * Reg.t
  | Flw of Reg.t * Reg.t * int
  | Fsw of Reg.t * Reg.t * int
  | Fcvt_w_s of Reg.t * Reg.t
  | Fcvt_s_w of Reg.t * Reg.t
  | Fmv_x_w of Reg.t * Reg.t
  | Fmv_w_x of Reg.t * Reg.t
  | Ecall
  | Ebreak
  | Fence

type op_class =
  | C_alu
  | C_mul
  | C_div
  | C_fadd
  | C_fmul
  | C_fdiv
  | C_load
  | C_store
  | C_branch
  | C_jump
  | C_system

let op_class = function
  | Rtype ((MUL | MULH | MULHSU | MULHU), _, _, _) -> C_mul
  | Rtype ((DIV | DIVU | REM | REMU), _, _, _) -> C_div
  | Rtype (_, _, _, _) | Itype (_, _, _, _) | Lui (_, _) | Auipc (_, _) -> C_alu
  | Load (_, _, _, _) | Flw (_, _, _) -> C_load
  | Store (_, _, _, _) | Fsw (_, _, _) -> C_store
  | Branch (_, _, _, _) -> C_branch
  | Jal (_, _) | Jalr (_, _, _) -> C_jump
  | Ftype (FMUL, _, _, _) -> C_fmul
  | Ftype ((FDIV | FSQRT), _, _, _) -> C_fdiv
  | Ftype (_, _, _, _) | Fcmp (_, _, _, _) -> C_fadd
  | Fcvt_w_s (_, _) | Fcvt_s_w (_, _) | Fmv_x_w (_, _) | Fmv_w_x (_, _) -> C_fadd
  | Ecall | Ebreak | Fence -> C_system

let is_memory i =
  match op_class i with C_load | C_store -> true | _ -> false

let is_load i = op_class i = C_load
let is_store i = op_class i = C_store

let is_fp = function
  | Ftype _ | Fcmp _ | Flw _ | Fsw _ | Fcvt_w_s _ | Fcvt_s_w _ | Fmv_x_w _ | Fmv_w_x _ ->
    true
  | Rtype _ | Itype _ | Load _ | Store _ | Branch _ | Lui _ | Auipc _ | Jal _
  | Jalr _ | Ecall | Ebreak | Fence ->
    false

let writes_int = function
  | Rtype (_, rd, _, _) | Itype (_, rd, _, _) | Load (_, rd, _, _)
  | Lui (rd, _) | Auipc (rd, _) | Jal (rd, _) | Jalr (rd, _, _)
  | Fcmp (_, rd, _, _) | Fcvt_w_s (rd, _) | Fmv_x_w (rd, _) ->
    Some rd
  | Store _ | Branch _ | Ftype _ | Flw _ | Fsw _ | Fcvt_s_w _ | Fmv_w_x _
  | Ecall | Ebreak | Fence ->
    None

let writes_fp = function
  | Ftype (_, fd, _, _) | Flw (fd, _, _) | Fcvt_s_w (fd, _) | Fmv_w_x (fd, _) ->
    Some fd
  | Rtype _ | Itype _ | Load _ | Store _ | Branch _ | Lui _ | Auipc _ | Jal _
  | Jalr _ | Fcmp _ | Fsw _ | Fcvt_w_s _ | Fmv_x_w _ | Ecall | Ebreak | Fence ->
    None

let fold_reads f acc = function
  | Rtype (_, _, rs1, rs2) | Branch (_, rs1, rs2, _) -> f (f acc rs1 `Int) rs2 `Int
  | Store (_, src, base, _) -> f (f acc src `Int) base `Int
  | Itype (_, _, rs1, _) | Load (_, _, rs1, _) | Jalr (_, rs1, _) | Flw (_, rs1, _)
  | Fcvt_s_w (_, rs1) | Fmv_w_x (_, rs1) ->
    f acc rs1 `Int
  | Lui (_, _) | Auipc (_, _) | Jal (_, _) | Ecall | Ebreak | Fence -> acc
  | Ftype (FSQRT, _, fs1, _) | Fcvt_w_s (_, fs1) | Fmv_x_w (_, fs1) -> f acc fs1 `Fp
  | Ftype (_, _, fs1, fs2) | Fcmp (_, _, fs1, fs2) -> f (f acc fs1 `Fp) fs2 `Fp
  | Fsw (fsrc, base, _) -> f (f acc fsrc `Fp) base `Int

let reads i = List.rev (fold_reads (fun acc r file -> (r, file) :: acc) [] i)

let branch_offset = function
  | Branch (_, _, _, off) | Jal (_, off) -> Some off
  | Rtype _ | Itype _ | Load _ | Store _ | Lui _ | Auipc _ | Jalr _ | Ftype _
  | Fcmp _ | Flw _ | Fsw _ | Fcvt_w_s _ | Fcvt_s_w _ | Fmv_x_w _ | Fmv_w_x _
  | Ecall | Ebreak | Fence ->
    None

let rop_name = function
  | ADD -> "add" | SUB -> "sub" | SLL -> "sll" | SLT -> "slt" | SLTU -> "sltu"
  | XOR -> "xor" | SRL -> "srl" | SRA -> "sra" | OR -> "or" | AND -> "and"
  | MUL -> "mul" | MULH -> "mulh" | MULHSU -> "mulhsu" | MULHU -> "mulhu"
  | DIV -> "div" | DIVU -> "divu" | REM -> "rem" | REMU -> "remu"

let iop_name = function
  | ADDI -> "addi" | SLTI -> "slti" | SLTIU -> "sltiu" | XORI -> "xori"
  | ORI -> "ori" | ANDI -> "andi" | SLLI -> "slli" | SRLI -> "srli" | SRAI -> "srai"

let bop_name = function
  | BEQ -> "beq" | BNE -> "bne" | BLT -> "blt" | BGE -> "bge"
  | BLTU -> "bltu" | BGEU -> "bgeu"

let lop_name = function
  | LB -> "lb" | LH -> "lh" | LW -> "lw" | LBU -> "lbu" | LHU -> "lhu"

let sop_name = function SB -> "sb" | SH -> "sh" | SW -> "sw"

let fop_name = function
  | FADD -> "fadd.s" | FSUB -> "fsub.s" | FMUL -> "fmul.s" | FDIV -> "fdiv.s"
  | FSQRT -> "fsqrt.s" | FMIN -> "fmin.s" | FMAX -> "fmax.s"
  | FSGNJ -> "fsgnj.s" | FSGNJN -> "fsgnjn.s" | FSGNJX -> "fsgnjx.s"

let fcmp_name = function FEQ -> "feq.s" | FLT -> "flt.s" | FLE -> "fle.s"

let pp ppf i =
  let r = Reg.name and f = Reg.fname in
  match i with
  | Rtype (op, rd, rs1, rs2) ->
    Format.fprintf ppf "%s %s, %s, %s" (rop_name op) (r rd) (r rs1) (r rs2)
  | Itype (op, rd, rs1, imm) ->
    Format.fprintf ppf "%s %s, %s, %d" (iop_name op) (r rd) (r rs1) imm
  | Load (op, rd, base, off) ->
    Format.fprintf ppf "%s %s, %d(%s)" (lop_name op) (r rd) off (r base)
  | Store (op, src, base, off) ->
    Format.fprintf ppf "%s %s, %d(%s)" (sop_name op) (r src) off (r base)
  | Branch (op, rs1, rs2, off) ->
    Format.fprintf ppf "%s %s, %s, %d" (bop_name op) (r rs1) (r rs2) off
  | Lui (rd, imm) -> Format.fprintf ppf "lui %s, 0x%x" (r rd) (imm lsr 12)
  | Auipc (rd, imm) -> Format.fprintf ppf "auipc %s, 0x%x" (r rd) (imm lsr 12)
  | Jal (rd, off) -> Format.fprintf ppf "jal %s, %d" (r rd) off
  | Jalr (rd, base, off) ->
    Format.fprintf ppf "jalr %s, %d(%s)" (r rd) off (r base)
  | Ftype (FSQRT, fd, fs1, _) ->
    Format.fprintf ppf "fsqrt.s %s, %s" (f fd) (f fs1)
  | Ftype (op, fd, fs1, fs2) ->
    Format.fprintf ppf "%s %s, %s, %s" (fop_name op) (f fd) (f fs1) (f fs2)
  | Fcmp (op, rd, fs1, fs2) ->
    Format.fprintf ppf "%s %s, %s, %s" (fcmp_name op) (r rd) (f fs1) (f fs2)
  | Flw (fd, base, off) -> Format.fprintf ppf "flw %s, %d(%s)" (f fd) off (r base)
  | Fsw (fsrc, base, off) ->
    Format.fprintf ppf "fsw %s, %d(%s)" (f fsrc) off (r base)
  | Fcvt_w_s (rd, fs1) -> Format.fprintf ppf "fcvt.w.s %s, %s" (r rd) (f fs1)
  | Fcvt_s_w (fd, rs1) -> Format.fprintf ppf "fcvt.s.w %s, %s" (f fd) (r rs1)
  | Fmv_x_w (rd, fs1) -> Format.fprintf ppf "fmv.x.w %s, %s" (r rd) (f fs1)
  | Fmv_w_x (fd, rs1) -> Format.fprintf ppf "fmv.w.x %s, %s" (f fd) (r rs1)
  | Ecall -> Format.pp_print_string ppf "ecall"
  | Ebreak -> Format.pp_print_string ppf "ebreak"
  | Fence -> Format.pp_print_string ppf "fence"
