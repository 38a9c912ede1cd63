(* Rodinia bfs: one sweep of edge relaxation. Irregular, memory-bound and
   control-heavy — the benchmark class the paper singles out as unsuited to
   spatial acceleration (Figure 11 discussion). Relaxations are order
   dependent, so the loop carries no parallel annotation. *)

let nodes = 512
let src_base = 0x100000
let dst_base = 0x140000
let cost_base = 0x200000
let infinity_cost = 9999

let inputs n =
  let rng = Prng.create 0x6266 in
  let src = Array.init n (fun _ -> Prng.int rng nodes) in
  let dst = Array.init n (fun _ -> Prng.int rng nodes) in
  let cost =
    Array.init nodes (fun v -> if v < 8 then 0 else infinity_cost)
  in
  (src, dst, cost)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.label b "loop";
  Asm.lw b t1 0 a0;   (* u = src[e] *)
  Asm.lw b t2 0 a1;   (* v = dst[e] *)
  Asm.slli b t1 t1 2;
  Asm.slli b t2 t2 2;
  Asm.add b t1 t1 a2;
  Asm.add b t2 t2 a2;
  Asm.lw b t3 0 t1;   (* cost[u] *)
  Asm.lw b t4 0 t2;   (* cost[v] *)
  Asm.addi b t3 t3 1;
  Asm.bge b t3 t4 "skip";
  Asm.sw b t3 0 t2;   (* guarded relaxation *)
  Asm.label b "skip";
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.bltu b a0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (src, dst, cost) =
  let cost = Array.copy cost in
  for e = 0 to n - 1 do
    let nc = cost.(src.(e)) + 1 in
    if nc < cost.(dst.(e)) then cost.(dst.(e)) <- nc
  done;
  cost

let make ?(n = 4096) () =
  let src, dst, cost = inputs n in
  let expected = reference n (src, dst, cost) in
  {
    Kernel.name = "bfs";
    description = "bfs: edge relaxation sweep (irregular, guarded stores)";
    parallel = false;
    fp = false;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_words mem src_base src;
        Main_memory.blit_words mem dst_base dst;
        Main_memory.blit_words mem cost_base cost);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, src_base + (4 * lo));
          (Reg.a1, dst_base + (4 * lo));
          (Reg.a2, cost_base);
          (Reg.a3, src_base + (4 * hi));
        ]);
    fargs = [];
    check = (fun mem -> Kernel.check_words mem ~addr:cost_base ~expected);
  }
