(* Rodinia streamcluster: squared distance of 4-dimensional points to a
   candidate center. The four coordinate loads share one base register. *)

let pts_base = 0x100000
let out_base = 0x200000
let center = [| 0.25; -0.5; 1.0; -0.125 |]

let inputs n =
  let rng = Prng.create 0x7363 in
  Array.init (4 * n) (fun _ -> Kernel.float_input rng)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 4 a0;
  Asm.flw b ft2 8 a0;
  Asm.flw b ft3 12 a0;
  Asm.fsub b ft0 ft0 fa0;
  Asm.fsub b ft1 ft1 fa1;
  Asm.fsub b ft2 ft2 fa2;
  Asm.fsub b ft3 ft3 fa3;
  Asm.fmul b ft0 ft0 ft0;
  Asm.fmul b ft1 ft1 ft1;
  Asm.fmul b ft2 ft2 ft2;
  Asm.fmul b ft3 ft3 ft3;
  Asm.fadd b ft0 ft0 ft1;
  Asm.fadd b ft2 ft2 ft3;
  Asm.fadd b ft0 ft0 ft2;
  Asm.fsw b ft0 0 a1;
  Asm.addi b a0 a0 16;
  Asm.addi b a1 a1 4;
  Asm.bltu b a0 a2 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n pts =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let d k = r32 (pts.((4 * i) + k) -. r32 center.(k)) in
      let sq k = r32 (d k *. d k) in
      let s01 = r32 (sq 0 +. sq 1) in
      let s23 = r32 (sq 2 +. sq 3) in
      r32 (s01 +. s23))

let make ?(n = 2048) () =
  let pts = inputs n in
  let expected = reference n pts in
  {
    Kernel.name = "streamcluster";
    description = "streamcluster: 4-D squared distance to a center";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup = (fun mem -> Main_memory.blit_floats mem pts_base pts);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, pts_base + (16 * lo));
          (Reg.a1, out_base + (4 * lo));
          (Reg.a2, pts_base + (16 * hi));
        ]);
    fargs =
      [ (Reg.fa0, center.(0)); (Reg.fa1, center.(1)); (Reg.fa2, center.(2)); (Reg.fa3, center.(3)) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
