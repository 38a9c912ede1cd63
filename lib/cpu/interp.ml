type halt = Exited | Ecall_halt | Step_limit | Fault of string

let s32 = Machine.to_s32
let u32 = Machine.to_u32
let r32 = Machine.round32

module Alu = struct
  let int_min32 = -0x80000000

  let rtype (op : Isa.rop) a b =
    match op with
    | ADD -> s32 (a + b)
    | SUB -> s32 (a - b)
    | SLL -> s32 (a lsl (b land 31))
    | SLT -> if a < b then 1 else 0
    | SLTU -> if u32 a < u32 b then 1 else 0
    | XOR -> s32 (a lxor b)
    | SRL -> s32 (u32 a lsr (b land 31))
    | SRA -> s32 (a asr (b land 31))
    | OR -> s32 (a lor b)
    | AND -> s32 (a land b)
    | MUL -> s32 (a * b)
    | MULH ->
      let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
      s32 (Int64.to_int (Int64.shift_right p 32))
    | MULHSU ->
      let p = Int64.mul (Int64.of_int a) (Int64.of_int (u32 b)) in
      s32 (Int64.to_int (Int64.shift_right p 32))
    | MULHU ->
      let p = Int64.mul (Int64.of_int (u32 a)) (Int64.of_int (u32 b)) in
      s32 (Int64.to_int (Int64.shift_right p 32))
    | DIV ->
      if b = 0 then -1
      else if a = int_min32 && b = -1 then int_min32
      else s32 (a / b)
    | DIVU -> if b = 0 then -1 else s32 (u32 a / u32 b)
    | REM ->
      if b = 0 then a
      else if a = int_min32 && b = -1 then 0
      else s32 (a mod b)
    | REMU -> if b = 0 then a else s32 (u32 a mod u32 b)

  let itype (op : Isa.iop) a imm =
    match op with
    | ADDI -> rtype ADD a imm
    | SLTI -> rtype SLT a imm
    | SLTIU -> rtype SLTU a imm
    | XORI -> rtype XOR a imm
    | ORI -> rtype OR a imm
    | ANDI -> rtype AND a imm
    | SLLI -> rtype SLL a imm
    | SRLI -> rtype SRL a imm
    | SRAI -> rtype SRA a imm

  let branch_taken (op : Isa.bop) a b =
    match op with
    | BEQ -> a = b
    | BNE -> a <> b
    | BLT -> a < b
    | BGE -> a >= b
    | BLTU -> u32 a < u32 b
    | BGEU -> u32 a >= u32 b

  (* Inlined, like every float operation below: a call that is not
     inlined boxes each float argument and result. *)
  let[@inline] sign_bit f = Int32.logand (Int32.bits_of_float f) Int32.min_int

  let[@inline] with_sign f sign =
    Int32.float_of_bits
      (Int32.logor (Int32.logand (Int32.bits_of_float f) Int32.max_int) sign)

  let[@inline] ftype (op : Isa.fop) a b =
    match op with
    | FADD -> r32 (a +. b)
    | FSUB -> r32 (a -. b)
    | FMUL -> r32 (a *. b)
    | FDIV -> r32 (a /. b)
    | FSQRT -> r32 (sqrt a)
    | FMIN ->
      if Float.is_nan a then b
      else if Float.is_nan b then a
      else if a < b then a
      else b
    | FMAX ->
      if Float.is_nan a then b
      else if Float.is_nan b then a
      else if a > b then a
      else b
    | FSGNJ -> with_sign a (sign_bit b)
    | FSGNJN -> with_sign a (Int32.logxor (sign_bit b) Int32.min_int)
    | FSGNJX -> with_sign a (Int32.logxor (sign_bit a) (sign_bit b))

  let[@inline] fcmp (op : Isa.fcmp) a b =
    if Float.is_nan a || Float.is_nan b then 0
    else
      let r = match op with FEQ -> a = b | FLT -> a < b | FLE -> a <= b in
      if r then 1 else 0

  let[@inline] fcvt_w_s f =
    if Float.is_nan f then 0x7FFFFFFF
    else if f >= 2147483647.0 then 0x7FFFFFFF
    else if f <= -2147483648.0 then int_min32
    else int_of_float f (* OCaml truncates toward zero = RTZ *)

  let[@inline] fcvt_s_w v = r32 (float_of_int v)
  let[@inline] fmv_x_w f = s32 (Int32.to_int (Int32.bits_of_float f))
  let[@inline] fmv_w_x v = Int32.float_of_bits (Int32.of_int v)

  let load (op : Isa.lop) mem addr =
    match op with
    | LB -> Main_memory.load_byte mem addr
    | LBU -> Main_memory.load_byte_u mem addr
    | LH -> Main_memory.load_half mem addr
    | LHU -> Main_memory.load_half_u mem addr
    | LW -> Main_memory.load_word mem addr

  let store (op : Isa.sop) mem addr v =
    match op with
    | SB -> Main_memory.store_byte mem addr v
    | SH -> Main_memory.store_half mem addr v
    | SW -> Main_memory.store_word mem addr v
end

(* Ecall and ebreak are the callers' to handle; a memory fault raises
   [Invalid_argument]. *)
let exec (m : Machine.t) pc instr =
  let next = pc + 4 in
  match instr with
  | Isa.Rtype (op, rd, rs1, rs2) ->
    Machine.set_x m rd (Alu.rtype op (Machine.get_x m rs1) (Machine.get_x m rs2));
    next
  | Isa.Itype (op, rd, rs1, imm) ->
    Machine.set_x m rd (Alu.itype op (Machine.get_x m rs1) imm);
    next
  | Isa.Load (op, rd, base, off) ->
    Machine.set_x m rd (Alu.load op m.mem (u32 (Machine.get_x m base + off)));
    next
  | Isa.Store (op, src, base, off) ->
    Alu.store op m.mem (u32 (Machine.get_x m base + off)) (Machine.get_x m src);
    next
  | Isa.Branch (op, rs1, rs2, off) ->
    if Alu.branch_taken op (Machine.get_x m rs1) (Machine.get_x m rs2) then pc + off
    else next
  | Isa.Lui (rd, imm) ->
    Machine.set_x m rd (s32 imm);
    next
  | Isa.Auipc (rd, imm) ->
    Machine.set_x m rd (s32 (pc + imm));
    next
  | Isa.Jal (rd, off) ->
    Machine.set_x m rd next;
    pc + off
  | Isa.Jalr (rd, base, off) ->
    let target = u32 (Machine.get_x m base + off) land lnot 1 in
    Machine.set_x m rd next;
    target
  | Isa.Ftype (op, fd, fs1, fs2) ->
    Machine.set_f m fd (Alu.ftype op (Machine.get_f m fs1) (Machine.get_f m fs2));
    next
  | Isa.Fcmp (op, rd, fs1, fs2) ->
    Machine.set_x m rd (Alu.fcmp op (Machine.get_f m fs1) (Machine.get_f m fs2));
    next
  | Isa.Flw (fd, base, off) ->
    (* The word's bits, as [Main_memory.load_float32] reads them: that
       call would box its float result, and [store_float32] its
       argument. *)
    let word = Main_memory.load_word m.mem (u32 (Machine.get_x m base + off)) in
    Machine.set_f m fd (Alu.fmv_w_x word);
    next
  | Isa.Fsw (fsrc, base, off) ->
    let word = Alu.fmv_x_w (Machine.get_f m fsrc) in
    Main_memory.store_word m.mem (u32 (Machine.get_x m base + off)) word;
    next
  | Isa.Fcvt_w_s (rd, fs1) ->
    Machine.set_x m rd (Alu.fcvt_w_s (Machine.get_f m fs1));
    next
  | Isa.Fcvt_s_w (fd, rs1) ->
    Machine.set_f m fd (Alu.fcvt_s_w (Machine.get_x m rs1));
    next
  | Isa.Fmv_x_w (rd, fs1) ->
    Machine.set_x m rd (Alu.fmv_x_w (Machine.get_f m fs1));
    next
  | Isa.Fmv_w_x (fd, rs1) ->
    Machine.set_f m fd (Alu.fmv_w_x (Machine.get_x m rs1));
    next
  | Isa.Ecall | Isa.Ebreak | Isa.Fence -> next

(* One match for both facts: an instruction is a memory op, a
   conditional branch or neither. *)
let dynamic_fact (m : Machine.t) = function
  | Isa.Load (_, _, base, off) | Isa.Store (_, _, base, off)
  | Isa.Flw (_, base, off) | Isa.Fsw (_, base, off) ->
    u32 (Machine.get_x m base + off)
  | Isa.Branch (op, rs1, rs2, _) ->
    if Alu.branch_taken op (Machine.get_x m rs1) (Machine.get_x m rs2) then 1 else 0
  | Isa.Rtype _ | Isa.Itype _ | Isa.Lui _ | Isa.Auipc _ | Isa.Jal _ | Isa.Jalr _
  | Isa.Ftype _ | Isa.Fcmp _ | Isa.Fcvt_w_s _ | Isa.Fcvt_s_w _ | Isa.Fmv_x_w _
  | Isa.Fmv_w_x _ | Isa.Ecall | Isa.Ebreak | Isa.Fence ->
    0

(* [Program.fetch]'s index without its option. *)
let[@inline] slot code base pc =
  let off = pc - base in
  if off >= 0 && off land 3 = 0 && off lsr 2 < Array.length code then off lsr 2 else -1

let run ?(max_steps = 100_000_000) prog (m : Machine.t) =
  let code = Program.code prog and base = Program.base prog in
  let rec go retired =
    if retired >= max_steps then (Step_limit, retired)
    else
      let i = slot code base m.pc in
      if i < 0 then (Exited, retired)
      else
        match code.(i) with
        | Isa.Ecall | Isa.Ebreak -> (Ecall_halt, retired)
        | instr -> (
          match exec m m.pc instr with
          | next_pc ->
            m.pc <- next_pc;
            go (retired + 1)
          | exception Invalid_argument msg -> (Fault msg, retired))
  in
  go 0
