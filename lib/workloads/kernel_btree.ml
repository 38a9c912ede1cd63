(* Rodinia b+tree: for each query key, locate the child slot within a node
   of eight sorted separator keys. The probe is branchless (a sum of
   comparisons), and the eight separator loads share one base register —
   prime vectorization material. *)

let fanout = 8
let keys_base = 0x100000
let node_base = 0x140000
let out_base = 0x200000

let inputs n =
  let rng = Prng.create 0x6274 in
  let node = Array.init fanout (fun i -> (i + 1) * 1000) in
  let queries = Array.init n (fun _ -> Prng.int rng ((fanout + 1) * 1000)) in
  (node, queries)

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.lw b t1 0 a0; (* query key *)
  Asm.li b t2 0;    (* slot accumulator *)
  for j = 0 to fanout - 1 do
    Asm.lw b t3 (4 * j) a1;
    Asm.slt b t4 t3 t1; (* node[j] < key *)
    Asm.add b t2 t2 t4
  done;
  Asm.sw b t2 0 a2;
  Asm.addi b a0 a0 4;
  Asm.addi b a2 a2 4;
  Asm.bltu b a0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (node, queries) =
  Array.init n (fun i ->
      Array.fold_left (fun acc k -> if k < queries.(i) then acc + 1 else acc) 0 node)

let make ?(n = 2048) () =
  let node, queries = inputs n in
  let expected = reference n (node, queries) in
  {
    Kernel.name = "btree";
    description = "b+tree: branchless child-slot probe over 8 separators";
    parallel = true;
    fp = false;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_words mem node_base node;
        Main_memory.blit_words mem keys_base queries);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, keys_base + (4 * lo));
          (Reg.a1, node_base);
          (Reg.a2, out_base + (4 * lo));
          (Reg.a3, keys_base + (4 * hi));
        ]);
    fargs = [];
    check = (fun mem -> Kernel.check_words mem ~addr:out_base ~expected);
  }
