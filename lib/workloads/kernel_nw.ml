(* Rodinia nw (Needleman-Wunsch): a running-maximum dynamic-programming
   recurrence. The carried register chain bounds pipelining — the kind of
   loop where MESA's II_rec matters. Not parallel. *)

let s_base = 0x100000
let t_base = 0x140000
let out_base = 0x200000

let inputs n =
  let rng = Prng.create 0x6e77 in
  let s = Array.init n (fun _ -> Prng.int_in rng (-8) 8) in
  let t = Array.init n (fun _ -> Prng.int_in rng (-64) 64) in
  (s, t)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  (* t0 carries the running score. *)
  Asm.label b "loop";
  Asm.lw b t1 0 a0;    (* s[i] *)
  Asm.lw b t2 0 a1;    (* t[i] *)
  Asm.add b t1 t0 t1;  (* prev + s[i] *)
  Asm.bge b t1 t2 "keep";
  Asm.mv b t1 t2;      (* guarded: take t[i] *)
  Asm.label b "keep";
  Asm.mv b t0 t1;
  Asm.sw b t0 0 a2;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.bltu b a0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (s, t) =
  let out = Array.make n 0 in
  let prev = ref 0 in
  for i = 0 to n - 1 do
    prev := max (!prev + s.(i)) t.(i);
    out.(i) <- !prev
  done;
  out

let make ?(n = 4096) () =
  let s, t = inputs n in
  let expected = reference n (s, t) in
  {
    Kernel.name = "nw";
    description = "needleman-wunsch: running-max DP recurrence (carried dep)";
    parallel = false;
    fp = false;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_words mem s_base s;
        Main_memory.blit_words mem t_base t);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.t0, 0);
          (Reg.a0, s_base + (4 * lo));
          (Reg.a1, t_base + (4 * lo));
          (Reg.a2, out_base + (4 * lo));
          (Reg.a3, s_base + (4 * hi));
        ]);
    fargs = [];
    check = (fun mem -> Kernel.check_words mem ~addr:out_base ~expected);
  }
