(* Rodinia myocyte: one explicit-Euler step of the cardiac ODE system,
   with the right-hand side as a cubic polynomial evaluated by Horner's
   rule — a pure FP dependence chain. *)

let y_base = 0x100000
let out_base = 0x200000
let c3 = -0.3
let c2 = 0.8
let c1 = -1.1
let c0 = 0.2
let dt = 0.05

let inputs n =
  let rng = Prng.create 0x6d79 in
  Array.init n (fun _ -> Kernel.float_input rng)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;      (* y *)
  Asm.fmul b ft1 ft0 fa0;  (* c3*y *)
  Asm.fadd b ft1 ft1 fa1;  (* + c2 *)
  Asm.fmul b ft1 ft1 ft0;  (* *y *)
  Asm.fadd b ft1 ft1 fa2;  (* + c1 *)
  Asm.fmul b ft1 ft1 ft0;  (* *y *)
  Asm.fadd b ft1 ft1 fa3;  (* + c0 = f(y) *)
  Asm.fmul b ft1 ft1 fa4;  (* dt * f(y) *)
  Asm.fadd b ft1 ft0 ft1;  (* y + dt*f(y) *)
  Asm.fsw b ft1 0 a1;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.bltu b a0 a2 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n y =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let h = r32 (y.(i) *. r32 c3) in
      let h = r32 (h +. r32 c2) in
      let h = r32 (h *. y.(i)) in
      let h = r32 (h +. r32 c1) in
      let h = r32 (h *. y.(i)) in
      let h = r32 (h +. r32 c0) in
      let h = r32 (h *. r32 dt) in
      r32 (y.(i) +. h))

let make ?(n = 2048) () =
  let y = inputs n in
  let expected = reference n y in
  {
    Kernel.name = "myocyte";
    description = "myocyte: Euler ODE step with a Horner-form cubic RHS";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup = (fun mem -> Main_memory.blit_floats mem y_base y);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, y_base + (4 * lo));
          (Reg.a1, out_base + (4 * lo));
          (Reg.a2, y_base + (4 * hi));
        ]);
    fargs =
      [ (Reg.fa0, c3); (Reg.fa1, c2); (Reg.fa2, c1); (Reg.fa3, c0); (Reg.fa4, dt) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
