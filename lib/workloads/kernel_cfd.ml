(* Rodinia cfd: per-cell Euler flux contribution — the FP-heaviest kernel,
   with a divide and a square root on the critical path. *)

let d_base = 0x100000
let e_base = 0x140000
let vx_base = 0x180000
let vy_base = 0x1c0000
let out_base = 0x200000

let inputs n =
  let rng = Prng.create 0x6366 in
  let mk () = Array.init n (fun _ -> Kernel.float_input rng) in
  let d = mk () and e = mk () and vx = mk () and vy = mk () in
  (d, e, vx, vy)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 0 a1;
  Asm.flw b ft2 0 a2;
  Asm.flw b ft3 0 a3;
  Asm.fmul b ft4 ft0 ft2;
  Asm.fmul b ft5 ft1 ft3;
  Asm.fadd b ft4 ft4 ft5;
  Asm.fmul b ft6 ft0 ft0;
  Asm.fadd b ft6 ft6 fa0;
  Asm.fdiv b ft4 ft4 ft6;
  Asm.fmul b ft7 ft2 ft2;
  Asm.fmul b ft8 ft3 ft3;
  Asm.fadd b ft7 ft7 ft8;
  Asm.fsqrt b ft7 ft7;
  Asm.fadd b ft4 ft4 ft7;
  Asm.fsw b ft4 0 a4;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.addi b a3 a3 4;
  Asm.addi b a4 a4 4;
  Asm.bltu b a0 a5 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (d, e, vx, vy) =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let m1 = r32 (d.(i) *. vx.(i)) in
      let m2 = r32 (e.(i) *. vy.(i)) in
      let num = r32 (m1 +. m2) in
      let den = r32 (r32 (d.(i) *. d.(i)) +. 1.0) in
      let q = r32 (num /. den) in
      let s = r32 (r32 (vx.(i) *. vx.(i)) +. r32 (vy.(i) *. vy.(i))) in
      let rt = r32 (sqrt s) in
      r32 (q +. rt))

let make ?(n = 2048) () =
  let d, e, vx, vy = inputs n in
  let expected = reference n (d, e, vx, vy) in
  {
    Kernel.name = "cfd";
    description = "cfd: per-cell Euler flux (divide + sqrt heavy)";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_floats mem d_base d;
        Main_memory.blit_floats mem e_base e;
        Main_memory.blit_floats mem vx_base vx;
        Main_memory.blit_floats mem vy_base vy);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, d_base + (4 * lo));
          (Reg.a1, e_base + (4 * lo));
          (Reg.a2, vx_base + (4 * lo));
          (Reg.a3, vy_base + (4 * lo));
          (Reg.a4, out_base + (4 * lo));
          (Reg.a5, d_base + (4 * hi));
        ]);
    fargs = [ (Reg.fa0, 1.0) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
