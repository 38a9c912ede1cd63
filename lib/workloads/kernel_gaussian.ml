(* Rodinia gaussian: one row-elimination step, row_j -= ratio * pivot_j. *)

let a_base = 0x100000
let pivot_base = 0x140000
let out_base = 0x200000
let ratio = 0.437

let inputs n =
  let rng = Prng.create 0x6761 in
  let a = Array.init n (fun _ -> Kernel.float_input rng) in
  let p = Array.init n (fun _ -> Kernel.float_input rng) in
  (a, p)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 0 a1;
  Asm.fmul b ft1 ft1 fa0;
  Asm.fsub b ft0 ft0 ft1;
  Asm.fsw b ft0 0 a2;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.bltu b a0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (a, p) =
  let r32 = Kernel.r32 in
  Array.init n (fun i -> r32 (a.(i) -. r32 (p.(i) *. r32 ratio)))

let make ?(n = 4096) () =
  let a, p = inputs n in
  let expected = reference n (a, p) in
  {
    Kernel.name = "gaussian";
    description = "gaussian elimination: row update against the pivot row";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_floats mem a_base a;
        Main_memory.blit_floats mem pivot_base p);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, a_base + (4 * lo));
          (Reg.a1, pivot_base + (4 * lo));
          (Reg.a2, out_base + (4 * lo));
          (Reg.a3, a_base + (4 * hi));
        ]);
    fargs = [ (Reg.fa0, ratio) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
