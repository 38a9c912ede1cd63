(* Rodinia lud: the LU-decomposition inner update a_j -= l * u_j, done in
   place on the active row. *)

let a_base = 0x100000
let u_base = 0x140000
let l_factor = 0.618

let inputs n =
  let rng = Prng.create 0x6c75 in
  let a = Array.init n (fun _ -> Kernel.float_input rng) in
  let u = Array.init n (fun _ -> Kernel.float_input rng) in
  (a, u)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 0 a1;
  Asm.fmul b ft1 ft1 fa0;
  Asm.fsub b ft0 ft0 ft1;
  Asm.fsw b ft0 0 a0;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.bltu b a0 a2 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (a, u) =
  let r32 = Kernel.r32 in
  Array.init n (fun i -> r32 (a.(i) -. r32 (u.(i) *. r32 l_factor)))

let make ?(n = 4096) () =
  let a, u = inputs n in
  let expected = reference n (a, u) in
  {
    Kernel.name = "lud";
    description = "lud: in-place LU inner row update";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_floats mem a_base a;
        Main_memory.blit_floats mem u_base u);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, a_base + (4 * lo));
          (Reg.a1, u_base + (4 * lo));
          (Reg.a2, a_base + (4 * hi));
        ]);
    fargs = [ (Reg.fa0, l_factor) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:a_base ~expected);
  }
