(* Rodinia nn (nearest neighbor): Euclidean distance of every record to a
   target location — the paper's PE-scaling kernel (Figure 15), small enough
   to fit 16 PEs. *)

let lat_base = 0x100000
let lng_base = 0x140000
let out_base = 0x200000
let target_lat = 0.72
let target_lng = -1.31

let inputs n =
  let rng = Prng.create 0x4e4e in
  let lat = Array.init n (fun _ -> Kernel.float_input rng) in
  let lng = Array.init n (fun _ -> Kernel.float_input rng) in
  (lat, lng)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 0 a1;
  Asm.fsub b ft0 ft0 fa0;
  Asm.fsub b ft1 ft1 fa1;
  Asm.fmul b ft0 ft0 ft0;
  Asm.fmul b ft1 ft1 ft1;
  Asm.fadd b ft0 ft0 ft1;
  Asm.fsqrt b ft2 ft0;
  Asm.fsw b ft2 0 a2;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.bltu b a0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (lat, lng) =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let dx = r32 (lat.(i) -. r32 target_lat) in
      let dy = r32 (lng.(i) -. r32 target_lng) in
      let dx2 = r32 (dx *. dx) in
      let dy2 = r32 (dy *. dy) in
      r32 (sqrt (r32 (dx2 +. dy2))))

let make ?(n = 4096) () =
  let lat, lng = inputs n in
  let expected = reference n (lat, lng) in
  {
    Kernel.name = "nn";
    description = "nearest neighbor: Euclidean distance to a target";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_floats mem lat_base lat;
        Main_memory.blit_floats mem lng_base lng);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, lat_base + (4 * lo));
          (Reg.a1, lng_base + (4 * lo));
          (Reg.a2, out_base + (4 * lo));
          (Reg.a3, lat_base + (4 * hi));
        ]);
    fargs = [ (Reg.fa0, target_lat); (Reg.fa1, target_lng) ];
    check = (fun mem -> Kernel.check_floats mem ~addr:out_base ~expected);
  }
