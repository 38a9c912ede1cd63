(* Rodinia pathfinder: next-row DP step, dst_i = w_i + min of the three
   neighbours in the previous row. Two forward branches realize the min. *)

let src_base = 0x100000
let w_base = 0x140000
let out_base = 0x200000

let inputs n =
  let rng = Prng.create 0x7068 in
  let src = Array.init (n + 2) (fun _ -> Prng.int rng 100) in
  let w = Array.init n (fun _ -> Prng.int rng 10) in
  (src, w)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  (* a0 points at src[i+1] (the center); neighbours at -4 and +4. *)
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.lw b t1 0 a0;
  Asm.lw b t2 (-4) a0;
  Asm.lw b t3 4 a0;
  Asm.bge b t2 t1 "no_left";
  Asm.mv b t1 t2;
  Asm.label b "no_left";
  Asm.bge b t3 t1 "no_right";
  Asm.mv b t1 t3;
  Asm.label b "no_right";
  Asm.lw b t4 0 a1;
  Asm.add b t1 t1 t4;
  Asm.sw b t1 0 a2;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.bltu b a0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (src, w) =
  Array.init n (fun i ->
      let m = min src.(i + 1) (min src.(i) src.(i + 2)) in
      m + w.(i))

let make ?(n = 4096) () =
  let src, w = inputs n in
  let expected = reference n (src, w) in
  {
    Kernel.name = "pathfinder";
    description = "pathfinder: DP row step with 3-way min (predicated)";
    parallel = true;
    fp = false;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_words mem src_base src;
        Main_memory.blit_words mem w_base w);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, src_base + (4 * (lo + 1)));
          (Reg.a1, w_base + (4 * lo));
          (Reg.a2, out_base + (4 * lo));
          (Reg.a3, src_base + (4 * (hi + 1)));
        ]);
    fargs = [];
    check = (fun mem -> Kernel.check_words mem ~addr:out_base ~expected);
  }
