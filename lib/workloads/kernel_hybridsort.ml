(* Rodinia hybridsort: the bucket-histogram pass. Each sample increments
   its bucket counter — a load-modify-store through a computed address, the
   dynamic-aliasing pattern the accelerator's LSU must disambiguate at
   runtime (two consecutive samples can hit the same bucket). Updates are
   order-sensitive read-modify-writes, so the loop is not parallel. *)

let buckets = 64
let samples_base = 0x100000
let hist_base = 0x200000

let inputs n =
  let rng = Prng.create 0x6879 in
  Array.init n (fun _ -> Prng.int rng 4096)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.label b "loop";
  Asm.lw b t1 0 a0;     (* sample *)
  Asm.srli b t1 t1 6;   (* 4096 values -> 64 buckets *)
  Asm.andi b t1 t1 63;
  Asm.slli b t1 t1 2;
  Asm.add b t1 t1 a1;   (* &hist[b] *)
  Asm.lw b t2 0 t1;
  Asm.addi b t2 t2 1;
  Asm.sw b t2 0 t1;
  Asm.addi b a0 a0 4;
  Asm.bltu b a0 a2 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference xs =
  let hist = Array.make buckets 0 in
  Array.iter (fun x -> let b = (x lsr 6) land 63 in hist.(b) <- hist.(b) + 1) xs;
  hist

let make ?(n = 4096) () =
  let samples = inputs n in
  let expected = reference samples in
  {
    Kernel.name = "hybridsort";
    description = "hybridsort: bucket histogram (read-modify-write aliasing)";
    parallel = false;
    fp = false;
    n;
    program = build_program ();
    setup = (fun mem -> Main_memory.blit_words mem samples_base samples);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, samples_base + (4 * lo));
          (Reg.a1, hist_base);
          (Reg.a2, samples_base + (4 * hi));
        ]);
    fargs = [];
    check = (fun mem -> Kernel.check_words mem ~addr:hist_base ~expected);
  }
