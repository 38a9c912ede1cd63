(* Rodinia kmeans: assign each 2-D point to the nearest of four centroids.
   The cluster loop is unrolled, giving the forward-branch / predication
   pattern MESA handles with PE enables (§5.2). *)

let x_base = 0x100000
let y_base = 0x140000
let out_base = 0x200000

let centroids = [| (0.5, 0.5); (-0.7, 0.9); (1.2, -1.1); (-0.3, -0.8) |]

let inputs n =
  let rng = Prng.create 0x6b6d in
  let x = Array.init n (fun _ -> Kernel.float_input rng) in
  let y = Array.init n (fun _ -> Kernel.float_input rng) in
  (x, y)

(* Centroid coordinates live in saved FP registers: xs in fs0..fs3, ys in
   fs4..fs7. *)
let build_program () =
  let b = Asm.create () in
  let open Reg in
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.flw b ft0 0 a0;
  Asm.flw b ft1 0 a1;
  (* Cluster 0 seeds the running best. *)
  Asm.fsub b ft2 ft0 fs0;
  Asm.fmul b ft2 ft2 ft2;
  Asm.fsub b ft3 ft1 fs4;
  Asm.fmul b ft3 ft3 ft3;
  Asm.fadd b ft4 ft2 ft3;
  Asm.li b t1 0;
  (* Clusters 1..3 challenge it under a forward branch. *)
  List.iter
    (fun c ->
      let skip = Printf.sprintf "skip%d" c in
      Asm.fsub b ft2 ft0 (fs0 + c);
      Asm.fmul b ft2 ft2 ft2;
      Asm.fsub b ft3 ft1 (fs4 + c);
      Asm.fmul b ft3 ft3 ft3;
      Asm.fadd b ft5 ft2 ft3;
      Asm.flt b t2 ft5 ft4;
      Asm.beq b t2 zero skip;
      Asm.fmv b ft4 ft5;
      Asm.li b t1 c;
      Asm.label b skip)
    [ 1; 2; 3 ];
  Asm.sw b t1 0 a2;
  Asm.addi b a0 a0 4;
  Asm.addi b a1 a1 4;
  Asm.addi b a2 a2 4;
  Asm.bltu b a0 a3 "loop";
  Asm.ecall b;
  Asm.assemble b

let reference n (x, y) =
  let r32 = Kernel.r32 in
  Array.init n (fun i ->
      let dist (cx, cy) =
        let dx = r32 (x.(i) -. r32 cx) in
        let dy = r32 (y.(i) -. r32 cy) in
        r32 (r32 (dx *. dx) +. r32 (dy *. dy))
      in
      let best = ref (dist centroids.(0)) in
      let idx = ref 0 in
      for c = 1 to 3 do
        let d = dist centroids.(c) in
        if d < !best then begin
          best := d;
          idx := c
        end
      done;
      !idx)

let make ?(n = 2048) () =
  let x, y = inputs n in
  let expected = reference n (x, y) in
  {
    Kernel.name = "kmeans";
    description = "kmeans assignment: nearest of 4 centroids, unrolled";
    parallel = true;
    fp = true;
    n;
    program = build_program ();
    setup =
      (fun mem ->
        Main_memory.blit_floats mem x_base x;
        Main_memory.blit_floats mem y_base y);
    args =
      (fun ~lo ~hi ->
        [
          (Reg.a0, x_base + (4 * lo));
          (Reg.a1, y_base + (4 * lo));
          (Reg.a2, out_base + (4 * lo));
          (Reg.a3, x_base + (4 * hi));
        ]);
    fargs =
      List.concat
        (List.mapi
           (fun c (cx, cy) -> [ (Reg.fs0 + c, cx); (Reg.fs4 + c, cy) ])
           (Array.to_list centroids));
    check = (fun mem -> Kernel.check_words mem ~addr:out_base ~expected);
  }
