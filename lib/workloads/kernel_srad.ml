(* Rodinia srad: speckle-reducing diffusion update — a diffusion
   coefficient from the local gradient, then an explicit Euler step. *)

let img_base = 0x100000
let grad_base = 0x140000
let out_base = 0x200000
let lambda = 0.25

let inputs n =
  let rng = Prng.create 0x7372 in
  let img = Array.init n (fun _ -> Kernel.r32 (Prng.float_in rng 0.0 255.0)) in
  let grad = Array.init n (fun _ -> Kernel.float_input rng) in
  (img, grad)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;      (* img *)
  Asm.flw b ft1 0 a1;      (* grad *)
  Asm.fmul b ft2 ft1 ft1;  (* g^2 *)
  Asm.fadd b ft3 fa0 ft2;  (* 1 + g^2 *)
  Asm.fdiv b ft3 fa0 ft3;  (* c = 1 / (1 + g^2) *)
  Asm.fmul b ft3 ft3 ft1;  (* c * g *)
  Asm.fmul b ft3 ft3 fa1;  (* lambda * c * g *)
  Asm.fadd b ft3 ft0 ft3;
  Asm.fsw b ft3 0 a2;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.bltu b a0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (img, grad) =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let g2 = r32 (grad.(i) *. grad.(i)) in
      let den = r32 (1.0 +. g2) in
      let c = r32 (1.0 /. den) in
      let cg = r32 (c *. grad.(i)) in
      let d = r32 (cg *. r32 lambda) in
      r32 (img.(i) +. d))

let make ?(n = 2048) () =
  let img, grad = inputs n in
  let expected = reference n (img, grad) in
  {
    Kernel.name = "srad";
    description = "srad: diffusion-coefficient update step";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_floats mem img_base img;
        Main_memory.blit_floats mem grad_base grad);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, img_base + (4 * lo));
          (Reg.a1, grad_base + (4 * lo));
          (Reg.a2, out_base + (4 * lo));
          (Reg.a3, img_base + (4 * hi));
        ]);
    fargs = [ (Reg.fa0, 1.0); (Reg.fa1, lambda) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
