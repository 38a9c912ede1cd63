(* Rodinia heartwall: template correlation along the tracked wall — a
   4-tap sliding dot product of the image against a fixed template. The
   four image loads share a base register at consecutive offsets. *)

let img_base = 0x100000
let out_base = 0x200000
let template = [| 0.25; 0.5; 0.75; 0.5 |]

let inputs n =
  let rng = Prng.create 0x6877 in
  Array.init (n + 4) (fun _ -> Kernel.float_input rng)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 4 a0;
  Asm.flw b ft2 8 a0;
  Asm.flw b ft3 12 a0;
  Asm.fmul b ft0 ft0 fa0;
  Asm.fmul b ft1 ft1 fa1;
  Asm.fmul b ft2 ft2 fa2;
  Asm.fmul b ft3 ft3 fa3;
  Asm.fadd b ft0 ft0 ft1;
  Asm.fadd b ft2 ft2 ft3;
  Asm.fadd b ft0 ft0 ft2;
  Asm.fsw b ft0 0 a1;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.bltu b a0 a2 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n img =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let p k = r32 (img.(i + k) *. r32 template.(k)) in
      let s01 = r32 (p 0 +. p 1) in
      let s23 = r32 (p 2 +. p 3) in
      r32 (s01 +. s23))

let make ?(n = 2048) () =
  let img = inputs n in
  let expected = reference n img in
  {
    Kernel.name = "heartwall";
    description = "heartwall: 4-tap template correlation along the wall";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup = (fun mem -> Main_memory.blit_floats mem img_base img);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, img_base + (4 * lo));
          (Reg.a1, out_base + (4 * lo));
          (Reg.a2, img_base + (4 * hi));
        ]);
    fargs =
      [
        (Reg.fa0, template.(0)); (Reg.fa1, template.(1));
        (Reg.fa2, template.(2)); (Reg.fa3, template.(3));
      ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
