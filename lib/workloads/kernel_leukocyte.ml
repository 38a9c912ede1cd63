(* Rodinia leukocyte: the GICOV step — directional gradient products
   accumulated per cell from the two gradient fields. *)

let gx_base = 0x100000
let gy_base = 0x140000
let out_base = 0x200000

let inputs n =
  let rng = Prng.create 0x6c65 in
  let gx = Array.init (n + 2) (fun _ -> Kernel.float_input rng) in
  let gy = Array.init (n + 2) (fun _ -> Kernel.float_input rng) in
  (gx, gy)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 4 a0;
  Asm.flw b ft2 0 a1;
  Asm.flw b ft3 4 a1;
  Asm.fmul b ft4 ft0 ft2;  (* gx_i * gy_i *)
  Asm.fmul b ft5 ft1 ft3;  (* gx_{i+1} * gy_{i+1} *)
  Asm.fadd b ft4 ft4 ft5;
  Asm.fmul b ft6 ft0 ft0;
  Asm.fmul b ft7 ft2 ft2;
  Asm.fadd b ft6 ft6 ft7;
  Asm.fadd b ft6 ft6 fa0;  (* variance + eps *)
  Asm.fdiv b ft4 ft4 ft6;  (* normalized gradient product *)
  Asm.fsw b ft4 0 a2;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.bltu b a0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (gx, gy) =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let num = r32 (r32 (gx.(i) *. gy.(i)) +. r32 (gx.(i + 1) *. gy.(i + 1))) in
      let den = r32 (r32 (r32 (gx.(i) *. gx.(i)) +. r32 (gy.(i) *. gy.(i))) +. 1.0) in
      r32 (num /. den))

let make ?(n = 2048) () =
  let gx, gy = inputs n in
  let expected = reference n (gx, gy) in
  {
    Kernel.name = "leukocyte";
    description = "leukocyte: normalized directional gradient products (GICOV)";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_floats mem gx_base gx;
        Main_memory.blit_floats mem gy_base gy);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, gx_base + (4 * lo));
          (Reg.a1, gy_base + (4 * lo));
          (Reg.a2, out_base + (4 * lo));
          (Reg.a3, gx_base + (4 * hi));
        ]);
    fargs = [ (Reg.fa0, 1.0) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
