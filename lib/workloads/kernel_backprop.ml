(* Rodinia backprop: weight update with momentum,
   w += eta * delta * x + momentum * oldw (in place). *)

let w_base = 0x100000
let delta_base = 0x140000
let x_base = 0x180000
let oldw_base = 0x1c0000
let eta = 0.3
let momentum = 0.3

let inputs n =
  let rng = Prng.create 0x6270 in
  let mk () = Array.init n (fun _ -> Kernel.float_input rng) in
  let w = mk () and delta = mk () and x = mk () and oldw = mk () in
  (w, delta, x, oldw)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 0 a1;
  Asm.flw b ft2 0 a2;
  Asm.flw b ft3 0 a3;
  Asm.fmul b ft4 ft1 ft2;
  Asm.fmul b ft4 ft4 fa0;
  Asm.fmul b ft5 ft3 fa1;
  Asm.fadd b ft4 ft4 ft5;
  Asm.fadd b ft0 ft0 ft4;
  Asm.fsw b ft0 0 a0;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.addi b a3 a3 4;
  Asm.bltu b a0 a4 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (w, delta, x, oldw) =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let g = r32 (delta.(i) *. x.(i)) in
      let g = r32 (g *. r32 eta) in
      let m = r32 (oldw.(i) *. r32 momentum) in
      r32 (w.(i) +. r32 (g +. m)))

let make ?(n = 2048) () =
  let w, delta, x, oldw = inputs n in
  let expected = reference n (w, delta, x, oldw) in
  {
    Kernel.name = "backprop";
    description = "backprop: weight update with momentum (in place)";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_floats mem w_base w;
        Main_memory.blit_floats mem delta_base delta;
        Main_memory.blit_floats mem x_base x;
        Main_memory.blit_floats mem oldw_base oldw);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, w_base + (4 * lo));
          (Reg.a1, delta_base + (4 * lo));
          (Reg.a2, x_base + (4 * lo));
          (Reg.a3, oldw_base + (4 * lo));
          (Reg.a4, w_base + (4 * hi));
        ]);
    fargs = [ (Reg.fa0, eta); (Reg.fa1, momentum) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:w_base ~expected);
  }
