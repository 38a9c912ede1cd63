(* Rodinia particlefilter: likelihood-weight evaluation, with the
   exponential approximated by the rational kernel 1 / (1 + u + u^2/2) as
   fixed-function accelerators commonly do. *)

let x_base = 0x100000
let out_base = 0x200000

let inputs n =
  let rng = Prng.create 0x7066 in
  Array.init n (fun _ -> Kernel.float_input rng)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.fmul b ft1 ft0 ft0;   (* u = x^2 *)
  Asm.fmul b ft2 ft1 ft1;   (* u^2 *)
  Asm.fmul b ft2 ft2 fa1;   (* u^2 / 2 *)
  Asm.fadd b ft3 fa0 ft1;   (* 1 + u *)
  Asm.fadd b ft3 ft3 ft2;   (* 1 + u + u^2/2 *)
  Asm.fdiv b ft3 fa0 ft3;
  Asm.fsw b ft3 0 a1;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.bltu b a0 a2 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n x =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let u = r32 (x.(i) *. x.(i)) in
      let u2 = r32 (r32 (u *. u) *. 0.5) in
      let den = r32 (r32 (1.0 +. u) +. u2) in
      r32 (1.0 /. den))

let make ?(n = 2048) () =
  let x = inputs n in
  let expected = reference n x in
  {
    Kernel.name = "particlefilter";
    description = "particlefilter: likelihood weights (rational exp)";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup = (fun mem -> Main_memory.blit_floats mem x_base x);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, x_base + (4 * lo));
          (Reg.a1, out_base + (4 * lo));
          (Reg.a2, x_base + (4 * hi));
        ]);
    fargs = [ (Reg.fa0, 1.0); (Reg.fa1, 0.5) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
