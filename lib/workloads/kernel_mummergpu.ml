(* Rodinia mummergpu: substring matching — at each text position, compare
   four pattern bytes against the text and record how many match. Exercises
   the byte-granularity loads (lbu) of the memory system. *)

let pattern = [| 0x41; 0x43; 0x47; 0x54 |] (* "ACGT" *)
let text_base = 0x100000
let out_base = 0x200000

let inputs n =
  let rng = Prng.create 0x6d75 in
  (* DNA-ish alphabet so matches actually occur. *)
  Array.init (n + 4) (fun _ ->
      [| 0x41; 0x43; 0x47; 0x54 |].(Prng.int rng 4))

let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.li b t2 0;
  for k = 0 to 3 do
    Asm.lbu b t1 k a0;
    Asm.xori b t1 t1 pattern.(k);
    Asm.sltiu b t1 t1 1; (* 1 when the byte matched *)
    Asm.add b t2 t2 t1
  done;
  Asm.sw b t2 0 a1;
  Asm.addi b a0 a0 1;
  Asm.addi b a1 a1 4;
  Asm.bltu b a0 a2 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n text =
  Array.init n (fun i ->
      Array.to_list pattern
      |> List.mapi (fun k p -> if text.(i + k) = p then 1 else 0)
      |> List.fold_left ( + ) 0)

let make ?(n = 4096) () =
  let text = inputs n in
  let expected = reference n text in
  {
    Kernel.name = "mummergpu";
    description = "mummergpu: 4-byte pattern match per text position";
    parallel = true;
    fp = false;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Array.iteri
          (fun i byte -> Main_memory.store_byte mem (text_base + i) byte)
          text);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, text_base + lo);
          (Reg.a1, out_base + (4 * lo));
          (Reg.a2, text_base + hi);
        ]);
    fargs = [];
    check = (fun mem -> Kernel.check_words mem ~addr:out_base ~expected);
  }
