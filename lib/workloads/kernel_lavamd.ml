(* Rodinia lavaMD: pairwise particle interaction against a reference
   particle — 3-D distance, inverse-square force plus a root term. *)

let x_base = 0x100000
let y_base = 0x140000
let z_base = 0x180000
let out_base = 0x200000
let qx = 0.11
let qy = -0.42
let qz = 0.77

let inputs n =
  let rng = Prng.create 0x6c61 in
  let mk () = Array.init n (fun _ -> Kernel.float_input rng) in
  (mk (), mk (), mk ())

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 0 a1;
  Asm.flw b ft2 0 a2;
  Asm.fsub b ft0 ft0 fa0;
  Asm.fsub b ft1 ft1 fa1;
  Asm.fsub b ft2 ft2 fa2;
  Asm.fmul b ft0 ft0 ft0;
  Asm.fmul b ft1 ft1 ft1;
  Asm.fmul b ft2 ft2 ft2;
  Asm.fadd b ft0 ft0 ft1;
  Asm.fadd b ft0 ft0 ft2;
  Asm.fadd b ft0 ft0 fa3;  (* r2 + eps *)
  Asm.fdiv b ft3 fa4 ft0;  (* 1 / r2 *)
  Asm.fsqrt b ft4 ft0;
  Asm.fadd b ft3 ft3 ft4;
  Asm.fsw b ft3 0 a3;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.addi b a3 a3 4;
  Asm.bltu b a0 a4 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (x, y, z) =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let dx = r32 (x.(i) -. r32 qx) in
      let dy = r32 (y.(i) -. r32 qy) in
      let dz = r32 (z.(i) -. r32 qz) in
      let s = r32 (r32 (dx *. dx) +. r32 (dy *. dy)) in
      let s = r32 (s +. r32 (dz *. dz)) in
      let r2 = r32 (s +. 0.5) in
      let inv = r32 (1.0 /. r2) in
      let rt = r32 (sqrt r2) in
      r32 (inv +. rt))

let make ?(n = 2048) () =
  let x, y, z = inputs n in
  let expected = reference n (x, y, z) in
  {
    Kernel.name = "lavamd";
    description = "lavaMD: 3-D pairwise particle force (div + sqrt)";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_floats mem x_base x;
        Main_memory.blit_floats mem y_base y;
        Main_memory.blit_floats mem z_base z);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, x_base + (4 * lo));
          (Reg.a1, y_base + (4 * lo));
          (Reg.a2, z_base + (4 * lo));
          (Reg.a3, out_base + (4 * lo));
          (Reg.a4, x_base + (4 * hi));
        ]);
    fargs =
      [ (Reg.fa0, qx); (Reg.fa1, qy); (Reg.fa2, qz); (Reg.fa3, 0.5); (Reg.fa4, 1.0) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
