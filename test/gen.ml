(* QCheck generators shared across the property-based tests: random RV32IMF
   instructions (for the codec roundtrip) and random acceptable loop bodies
   (for the end-to-end CPU-vs-accelerator equivalence property). *)

open QCheck2

let reg = Gen.int_range 0 31
let nonzero_reg = Gen.int_range 1 31
let imm12 = Gen.int_range (-2048) 2047
let shamt = Gen.int_range 0 31

let rop =
  Gen.oneofl
    [ Isa.ADD; Isa.SUB; Isa.SLL; Isa.SLT; Isa.SLTU; Isa.XOR; Isa.SRL; Isa.SRA;
      Isa.OR; Isa.AND; Isa.MUL; Isa.MULH; Isa.MULHSU; Isa.MULHU; Isa.DIV;
      Isa.DIVU; Isa.REM; Isa.REMU ]

let iop =
  Gen.oneofl
    [ Isa.ADDI; Isa.SLTI; Isa.SLTIU; Isa.XORI; Isa.ORI; Isa.ANDI ]

let shift_op = Gen.oneofl [ Isa.SLLI; Isa.SRLI; Isa.SRAI ]
let bop = Gen.oneofl [ Isa.BEQ; Isa.BNE; Isa.BLT; Isa.BGE; Isa.BLTU; Isa.BGEU ]
let lop = Gen.oneofl [ Isa.LB; Isa.LH; Isa.LW; Isa.LBU; Isa.LHU ]
let sop = Gen.oneofl [ Isa.SB; Isa.SH; Isa.SW ]

let fop =
  Gen.oneofl
    [ Isa.FADD; Isa.FSUB; Isa.FMUL; Isa.FDIV; Isa.FMIN; Isa.FMAX; Isa.FSGNJ;
      Isa.FSGNJN; Isa.FSGNJX ]

let fcmp = Gen.oneofl [ Isa.FEQ; Isa.FLT; Isa.FLE ]

(* Even, in-range branch/jal offsets. *)
let branch_off = Gen.map (fun k -> 2 * k) (Gen.int_range (-2048) 2047)
let jal_off = Gen.map (fun k -> 2 * k) (Gen.int_range (-524288) 524287)
let upper20 = Gen.map (fun k -> k lsl 12) (Gen.int_range (-524288) 524287)

let instr : Isa.t Gen.t =
  Gen.oneof
    [
      Gen.map4 (fun op rd rs1 rs2 -> Isa.Rtype (op, rd, rs1, rs2)) rop reg reg reg;
      Gen.map4 (fun op rd rs1 imm -> Isa.Itype (op, rd, rs1, imm)) iop reg reg imm12;
      Gen.map4 (fun op rd rs1 imm -> Isa.Itype (op, rd, rs1, imm)) shift_op reg reg shamt;
      Gen.map4 (fun op rd base off -> Isa.Load (op, rd, base, off)) lop reg reg imm12;
      Gen.map4 (fun op src base off -> Isa.Store (op, src, base, off)) sop reg reg imm12;
      Gen.map4 (fun op rs1 rs2 off -> Isa.Branch (op, rs1, rs2, off)) bop reg reg branch_off;
      Gen.map2 (fun rd imm -> Isa.Lui (rd, imm)) reg upper20;
      Gen.map2 (fun rd imm -> Isa.Auipc (rd, imm)) reg upper20;
      Gen.map2 (fun rd off -> Isa.Jal (rd, off)) reg jal_off;
      Gen.map3 (fun rd base off -> Isa.Jalr (rd, base, off)) reg reg imm12;
      Gen.map4 (fun op fd fs1 fs2 -> Isa.Ftype (op, fd, fs1, fs2)) fop reg reg reg;
      Gen.map2 (fun fd fs1 -> Isa.Ftype (Isa.FSQRT, fd, fs1, 0)) reg reg;
      Gen.map4 (fun op rd fs1 fs2 -> Isa.Fcmp (op, rd, fs1, fs2)) fcmp reg reg reg;
      Gen.map3 (fun fd base off -> Isa.Flw (fd, base, off)) reg reg imm12;
      Gen.map3 (fun fsrc base off -> Isa.Fsw (fsrc, base, off)) reg reg imm12;
      Gen.map2 (fun rd fs1 -> Isa.Fcvt_w_s (rd, fs1)) reg reg;
      Gen.map2 (fun fd rs1 -> Isa.Fcvt_s_w (fd, rs1)) reg reg;
      Gen.map2 (fun rd fs1 -> Isa.Fmv_x_w (rd, fs1)) reg reg;
      Gen.map2 (fun fd rs1 -> Isa.Fmv_w_x (fd, rs1)) reg reg;
      Gen.oneofl [ Isa.Ecall; Isa.Ebreak; Isa.Fence ];
    ]

(* --------------------------------------------------------------------- *)
(* Random acceptable loops.

   The loop iterates a fixed induction register over [0, n), streaming one
   output array, with a body of random integer/FP arithmetic over a small
   register window, bounded random loads from two input arrays, and an
   optional predicated segment under a forward branch. The shape satisfies
   C1-C3 by construction, so MESA must accept it and produce bit-identical
   architectural results. *)

type loop_spec = {
  body : Isa.t list;     (** body instructions, without induction/branch *)
  iterations : int;
  with_guard : bool;
}

(* Register conventions inside generated loops:
   a0 = input base 1, a1 = input base 2, a2 = output pointer (bumped),
   t0 = induction counter, a3 = trip count; temps t1-t6, s2-s5;
   FP temps ft0-ft7. *)

let in1_base = 0x100000
let in2_base = 0x140000
let out_base = 0x200000

let int_temp = Gen.oneofl [ 6; 7; 28; 29; 30 ] (* t1 t2 t3 t4 t5 *)
let fp_temp = Gen.int_range 0 7
let word_off = Gen.map (fun k -> 4 * k) (Gen.int_range 0 63)

let body_instr : Isa.t Gen.t =
  Gen.oneof
    [
      (* integer arithmetic over temps and the induction counter *)
      Gen.map4
        (fun op rd rs1 rs2 -> Isa.Rtype (op, rd, rs1, rs2))
        (Gen.oneofl [ Isa.ADD; Isa.SUB; Isa.XOR; Isa.OR; Isa.AND; Isa.SLT; Isa.MUL ])
        int_temp
        (Gen.oneofl [ 5; 6; 7; 28; 29 ])
        (Gen.oneofl [ 5; 6; 7; 28; 30 ]);
      Gen.map3 (fun rd rs1 imm -> Isa.Itype (Isa.ADDI, rd, rs1, imm)) int_temp int_temp
        (Gen.int_range (-64) 64);
      Gen.map3 (fun rd rs1 sh -> Isa.Itype (Isa.SLLI, rd, rs1, sh)) int_temp int_temp
        (Gen.int_range 0 4);
      (* loads from the two input arrays *)
      Gen.map2 (fun rd off -> Isa.Load (Isa.LW, rd, 10, off)) int_temp word_off;
      Gen.map2 (fun rd off -> Isa.Load (Isa.LW, rd, 11, off)) int_temp word_off;
      Gen.map2 (fun fd off -> Isa.Flw (fd, 10, off)) fp_temp word_off;
      (* FP arithmetic over temps *)
      Gen.map4
        (fun op fd fs1 fs2 -> Isa.Ftype (op, fd, fs1, fs2))
        (Gen.oneofl [ Isa.FADD; Isa.FSUB; Isa.FMUL; Isa.FMIN; Isa.FMAX ])
        fp_temp fp_temp fp_temp;
      Gen.map2 (fun rd fs -> Isa.Fcvt_w_s (rd, fs)) int_temp fp_temp;
      Gen.map2 (fun fd rs -> Isa.Fcvt_s_w (fd, rs)) fp_temp int_temp;
    ]

let loop_spec : loop_spec Gen.t =
  let open Gen in
  let* len = int_range 3 20 in
  let* body = list_size (return len) body_instr in
  let* iterations = int_range 40 200 in
  let* with_guard = bool in
  return { body; iterations; with_guard }

(* Materialize a spec into a runnable program + machine. The output store
   makes every iteration observable; the guard (when present) predicates the
   last two body instructions plus the store of a shadow value. *)
let build_loop (spec : loop_spec) =
  let b = Asm.create () in
  let open Reg in
  Asm.label b "loop";
  let body = Array.of_list spec.body in
  let n = Array.length body in
  Array.iteri
    (fun i instr ->
      if spec.with_guard && i = n - 1 then begin
        (* Predicate the final body instruction on a data-dependent test. *)
        Asm.andi b t6 t1 1;
        Asm.bne b t6 zero "skip";
        Asm.emit b instr;
        Asm.addi b t2 t2 3;
        Asm.label b "skip"
      end
      else Asm.emit b instr)
    body;
  (* Observable result per iteration. *)
  Asm.xor b t6 t1 t2;
  Asm.add b t6 t6 t3;
  Asm.sw b t6 0 a2;
  Asm.addi b a2 a2 4;
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a3 "loop";
  Asm.ecall b;
  let prog = Asm.assemble b in
  let mem = Main_memory.create () in
  let rng = Prng.create 0xfeed in
  Main_memory.blit_words mem in1_base (Array.init 256 (fun _ -> Prng.int_in rng (-1000) 1000));
  Main_memory.blit_words mem in2_base (Array.init 256 (fun _ -> Prng.int_in rng (-1000) 1000));
  let machine = Machine.create ~pc:(Program.entry prog) mem in
  Machine.set_args machine
    [ (a0, in1_base); (a1, in2_base); (a2, out_base); (t0, 0); (a3, spec.iterations) ];
  Machine.set_fargs machine [ (ft0, 1.5); (ft1, -0.25); (ft2, 3.0) ];
  (prog, machine)

let loop_spec_print (spec : loop_spec) =
  Printf.sprintf "iterations=%d guard=%b body=[%s]" spec.iterations spec.with_guard
    (String.concat "; " (List.map (fun i -> Format.asprintf "%a" Isa.pp i) spec.body))

(* --------------------------------------------------------------------- *)
(* Random fabric configurations.

   The axes live in {!Fuzz} (rows/cols/ports/interconnect choices), so the
   qcheck properties here and the differential fuzzer draw from exactly one
   generator definition. [max_ports] lets slow consumers (the profiling
   properties) cap the port axis. *)

type arch_case = {
  kernel : int;  (** index into [Workloads.all ()] *)
  rows : int;
  cols : int;
  ports : int;
  kind : Interconnect.kind;
}

let arch_case ?max_ports () =
  let open QCheck2.Gen in
  let ports_axis =
    Array.to_list Fuzz.ports_choices
    |> List.filter (fun p ->
           match max_ports with None -> true | Some m -> p <= m)
  in
  let n_kernels = List.length (Workloads.all ()) in
  0 -- (n_kernels - 1) >>= fun kernel ->
  oneofl (Array.to_list Fuzz.rows_choices) >>= fun rows ->
  oneofl (Array.to_list Fuzz.cols_choices) >>= fun cols ->
  oneofl ports_axis >>= fun ports ->
  oneofl (Array.to_list Fuzz.kind_choices) >>= fun kind ->
  return { kernel; rows; cols; ports; kind }

let arch_case_print c =
  let k = List.nth (Workloads.all ()) c.kernel in
  Printf.sprintf "%s on %dx%d ports=%d kind=%s" k.Kernel.name c.rows c.cols
    c.ports (Interconnect.kind_to_string c.kind)

let arch_case_kernel c = List.nth (Workloads.all ()) c.kernel
