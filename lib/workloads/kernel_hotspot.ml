(* Rodinia hotspot: one Jacobi step of the 5-point thermal stencil. The five
   temperature loads share one base register at different offsets — the
   pattern MESA's vectorization optimization (§4.2) coalesces. *)

let width = 64
let height = 66
let grid_cells = width * height

let temp_base = 0x100000
let power_base = 0x180000
let out_base = 0x200000
let cap = 0.064
let pk = 0.353

(* The hot loop covers the flat interior [width+1, cells-width-1). *)
let iterations = grid_cells - (2 * width) - 2

let inputs () =
  let rng = Prng.create 0x6873 in
  let temp = Array.init grid_cells (fun _ -> Kernel.r32 (Prng.float_in rng 310.0 340.0)) in
  let power = Array.init grid_cells (fun _ -> Kernel.float_input rng) in
  (temp, power)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  let w4 = 4 * width in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 (-4) a0;
  Asm.flw b ft2 4 a0;
  Asm.flw b ft3 (-w4) a0;
  Asm.flw b ft4 w4 a0;
  Asm.flw b ft5 0 a1;
  Asm.fadd b ft6 ft1 ft2;
  Asm.fadd b ft7 ft3 ft4;
  Asm.fadd b ft6 ft6 ft7;
  Asm.fadd b ft7 ft0 ft0;
  Asm.fadd b ft7 ft7 ft7;
  Asm.fsub b ft6 ft6 ft7;
  Asm.fmul b ft6 ft6 fa0;
  Asm.fmul b ft5 ft5 fa1;
  Asm.fadd b ft6 ft6 ft5;
  Asm.fadd b ft6 ft0 ft6;
  Asm.fsw b ft6 0 a2;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.bltu b a0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference (temp, power) =
  let r32 = Kernel.r32 in
  Array.init iterations (fun k ->
      let i = width + 1 + k in
      let sum1 = r32 (temp.(i - 1) +. temp.(i + 1)) in
      let sum2 = r32 (temp.(i - width) +. temp.(i + width)) in
      let nbr = r32 (sum1 +. sum2) in
      let t2 = r32 (temp.(i) +. temp.(i)) in
      let t4 = r32 (t2 +. t2) in
      let lap = r32 (nbr -. t4) in
      let d = r32 (lap *. r32 cap) in
      let p = r32 (power.(i) *. r32 pk) in
      r32 (temp.(i) +. r32 (d +. p)))

let make ?n () =
  let n = Option.value n ~default:iterations in
  let n = min n iterations in
  let temp, power = inputs () in
  let expected = Array.sub (reference (temp, power)) 0 n in
  {
    Kernel.name = "hotspot";
    description = "hotspot: 5-point thermal stencil (Jacobi step)";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_floats mem temp_base temp;
        Main_memory.blit_floats mem power_base power);
    args =
      (fun ~lo ~hi ->
        let first = width + 1 in
        [
          (Reg.a0, temp_base + (4 * (first + lo)));
          (Reg.a1, power_base + (4 * (first + lo)));
          (Reg.a2, out_base + (4 * lo));
          (Reg.a3, temp_base + (4 * (first + hi)));
        ]);
    fargs = [ (Reg.fa0, cap); (Reg.fa1, pk) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
