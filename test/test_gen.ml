(* The tile-DSL generator stack (lib/gen): unit tests that each combinator
   lowers to the expected RV32 shape, qcheck properties over the random
   program generator (validity, determinism, decodability, no undefined
   registers), and the mutation test — an injected lowering defect must be
   caught by the differential oracle and shrink to a tiny reproducer. *)

let chk = Alcotest.check

let code_of spec =
  match Tile_lower.lower spec with
  | Ok b -> Program.code b.Tile_lower.program
  | Error e -> Alcotest.failf "lower: %s" e

let exists_instr code p = Array.exists p code

(* A one-loop spec around [body], with x/out arrays sized generously. *)
let wrap1 ?(extent = 16) body =
  {
    Tile_dsl.sname = "t";
    seed = 7;
    arrays = [ Tile_dsl.array_i "x" 64; Tile_dsl.array_i ~input:false "out" 64 ];
    body = [ Tile_dsl.for_ "i" extent body ];
  }

(* {2 Combinator lowering} *)

let affine_load_store_lowering () =
  let open Tile_dsl in
  (* out[2i+3] = x[i] + 5: the load index scales by 4 bytes (slli 2), the
     store index by 8 (slli 3) plus a 12-byte displacement. *)
  let code =
    code_of
      (wrap1
         [
           Istore
             ( "out",
               idx ~const:3 [ ("i", 2) ],
               Ibin (Add, Iload ("x", idx [ ("i", 1) ]), Iconst 5) );
         ])
  in
  chk Alcotest.bool "x index: slli by 2" true
    (exists_instr code (function Isa.Itype (Isa.SLLI, _, _, 2) -> true | _ -> false));
  chk Alcotest.bool "out index: slli by 3" true
    (exists_instr code (function Isa.Itype (Isa.SLLI, _, _, 3) -> true | _ -> false));
  chk Alcotest.bool "out displacement: addi 12" true
    (exists_instr code (function Isa.Itype (Isa.ADDI, _, _, 12) -> true | _ -> false));
  chk Alcotest.bool "word load" true
    (exists_instr code (function Isa.Load (Isa.LW, _, _, _) -> true | _ -> false));
  chk Alcotest.bool "word store" true
    (exists_instr code (function Isa.Store (Isa.SW, _, _, _) -> true | _ -> false));
  chk Alcotest.bool "bottom-test backward branch" true
    (exists_instr code (function Isa.Branch (Isa.BLT, _, _, o) -> o < 0 | _ -> false))

let reduction_lowering () =
  let open Tile_dsl in
  (* ft0 accumulates: an FADD into scratch followed by a move into the
     temporary's home register ft0. *)
  let spec =
    {
      sname = "t";
      seed = 7;
      arrays = [ array_f "x" 64; array_f ~input:false "out" 4 ];
      body =
        [
          for_ "i" 4
            [
              Fset (0, Fconst 0.0);
              for_ "j" 16 [ accum_f 0 Fadd (Fload ("x", idx [ ("j", 1) ])) ];
              Fstore ("out", idx [ ("i", 1) ], Ftmp 0);
            ];
        ];
    }
  in
  let code = code_of spec in
  chk Alcotest.bool "fadd present" true
    (exists_instr code (function Isa.Ftype (Isa.FADD, _, _, _) -> true | _ -> false));
  chk Alcotest.bool "accumulator moved back into ft0" true
    (exists_instr code (function
      | Isa.Ftype (Isa.FSGNJ, fd, s, s') -> fd = Reg.ft0 && s = s'
      | _ -> false))

let guard_lowering () =
  let open Tile_dsl in
  (* A guard branches on the negated comparison over the guarded body. *)
  let store = Istore ("out", idx [ ("i", 1) ], Iconst 1) in
  let lt =
    code_of (wrap1 [ if_ Lt (Ivar "i") (Iconst 8) [ store ] ])
  in
  chk Alcotest.bool "Lt guards with bge" true
    (exists_instr lt (function Isa.Branch (Isa.BGE, _, _, o) -> o > 0 | _ -> false));
  let eq =
    code_of (wrap1 [ if_ Eq (Ibin (And, Ivar "i", Iconst 1)) (Iconst 0) [ store ] ])
  in
  chk Alcotest.bool "Eq guards with bne" true
    (exists_instr eq (function Isa.Branch (Isa.BNE, _, _, o) -> o > 0 | _ -> false))

let tile_lowering () =
  let open Tile_dsl in
  let loop =
    for_ "j" 16 [ Istore ("out", idx [ ("j", 1) ], Iload ("x", idx [ ("j", 2) ])) ]
  in
  let tiled =
    match tile ~t:4 loop with Ok s -> s | Error e -> Alcotest.fail e
  in
  (* Tiling splits the loop in two; untiling restores the original AST. *)
  chk Alcotest.bool "untile inverts tile" true (untile tiled = Some loop);
  let spec =
    {
      sname = "t";
      seed = 7;
      arrays = [ array_i "x" 64; array_i ~input:false "out" 16 ];
      body = [ for_ "i" 2 [ tiled ] ];
    }
  in
  let b =
    match Tile_lower.lower spec with Ok b -> b | Error e -> Alcotest.fail e
  in
  let p = b.Tile_lower.program in
  chk Alcotest.bool "outer tile loop label" true
    (match Program.symbol p "L_j_o" with _ -> true | exception Not_found -> false);
  chk Alcotest.bool "inner tile loop label" true
    (match Program.symbol p "L_j_i" with _ -> true | exception Not_found -> false);
  (* The strip-mined pair must compute exactly what the flat loop does. *)
  let flat = { spec with body = [ for_ "i" 2 [ loop ] ] } in
  let mem_t = Main_memory.create () and mem_f = Main_memory.create () in
  Tile_dsl.setup spec mem_t;
  Tile_dsl.setup flat mem_f;
  Tile_dsl.eval spec mem_t;
  Tile_dsl.eval flat mem_f;
  chk Alcotest.bool "tiled eval equals flat eval" true
    (Main_memory.equal mem_t mem_f)

let validate_rejects_bad_shapes () =
  let open Tile_dsl in
  let base = wrap1 [ Istore ("out", idx [ ("i", 1) ], Iconst 1) ] in
  chk Alcotest.bool "well-formed accepted" true (validate base = Ok ());
  let oob = wrap1 [ Istore ("out", idx [ ("i", 9) ], Iconst 1) ] in
  chk Alcotest.bool "out-of-bounds index rejected" true
    (Result.is_error (validate oob));
  let two_loops =
    {
      base with
      body =
        [
          for_ "i" 4
            [
              for_ "j" 10 [ Istore ("out", idx [ ("j", 1) ], Iconst 1) ];
              for_ "k" 10 [ Istore ("out", idx [ ("k", 1) ], Iconst 2) ];
            ];
        ];
    }
  in
  chk Alcotest.bool "two loops per level rejected" true
    (Result.is_error (validate two_loops));
  let loop_under_guard =
    wrap1
      [
        if_ Lt (Ivar "i") (Iconst 4)
          [ For { var = "j"; extent = 4; tile_tag = None; body = [] } ];
      ]
  in
  chk Alcotest.bool "loop under guard rejected" true
    (Result.is_error (validate loop_under_guard));
  let unbound = wrap1 [ Istore ("out", idx [ ("q", 1) ], Iconst 1) ] in
  chk Alcotest.bool "unbound variable rejected" true
    (Result.is_error (validate unbound))

(* {2 Properties of the random generator} *)

let gen_seed = QCheck2.Gen.int_range 0 1_000_000_000

let generated_specs_are_valid =
  QCheck2.Test.make ~name:"generated specs validate and lower" ~count:120
    ~print:string_of_int gen_seed (fun seed ->
      let spec = Tile_gen.generate ~seed in
      Tile_dsl.validate spec = Ok ()
      && Result.is_ok (Tile_lower.lower spec))

(* Kernel seed 3681531913123123863 (case 406 of `fuzz --seed 6`) once drew
   an expression needing 6 scratch slots; the fuzzer then reported a
   failure its shrinker could not reproduce. *)
let rejected_draw_is_redrawn () =
  let seed = 3681531913123123863 in
  let spec = Tile_gen.generate ~seed in
  chk Alcotest.bool "validates" true (Tile_dsl.validate spec = Ok ());
  chk Alcotest.bool "lowers" true (Result.is_ok (Tile_lower.lower spec));
  chk Alcotest.int "keeps the caller's seed" seed spec.Tile_dsl.seed;
  chk Alcotest.bool "deterministic" true (Tile_gen.generate ~seed = spec)

let lowering_is_deterministic =
  QCheck2.Test.make ~name:"lowering is deterministic (byte-identical)" ~count:60
    ~print:string_of_int gen_seed (fun seed ->
      let spec = Tile_gen.generate ~seed in
      let spec' = Tile_gen.generate ~seed in
      let words s =
        match Tile_lower.lower s with
        | Ok b -> Program.words b.Tile_lower.program
        | Error e -> Alcotest.failf "lower: %s" e
      in
      spec = spec' && words spec = words spec')

let json_roundtrip =
  QCheck2.Test.make ~name:"spec JSON roundtrip is exact" ~count:60
    ~print:string_of_int gen_seed (fun seed ->
      let spec = Tile_gen.generate ~seed in
      match Tile_dsl.of_json (Tile_dsl.to_json spec) with
      | Ok spec' -> spec = spec'
      | Error e -> Alcotest.failf "of_json: %s" e)

(* Well-formedness of the emitted machine code: it decodes back from its
   binary image, and every register any instruction reads is either an
   argument register or written somewhere in the program (the preamble
   zeroes the DSL temporaries, so nothing is read undefined). *)
let programs_well_formed =
  QCheck2.Test.make ~name:"generated programs decode and read no undefined regs"
    ~count:60 ~print:string_of_int gen_seed (fun seed ->
      let spec = Tile_gen.generate ~seed in
      let b =
        match Tile_lower.lower spec with
        | Ok b -> b
        | Error e -> Alcotest.failf "lower: %s" e
      in
      let prog = b.Tile_lower.program in
      let decodes =
        match Program.of_words ~base:(Program.base prog) (Program.words prog) with
        | Ok p -> Array.to_list (Program.code p) = Array.to_list (Program.code prog)
        | Error _ -> false
      in
      let code = Program.code prog in
      let args = List.map fst (b.Tile_lower.args ~lo:0 ~hi:b.Tile_lower.n) in
      let written_i = Hashtbl.create 32 and written_f = Hashtbl.create 32 in
      List.iter (fun r -> Hashtbl.replace written_i r ()) (Reg.zero :: args);
      Array.iter
        (fun instr ->
          (match Isa.writes_int instr with
          | Some r -> Hashtbl.replace written_i r ()
          | None -> ());
          match Isa.writes_fp instr with
          | Some r -> Hashtbl.replace written_f r ()
          | None -> ())
        code;
      let defined =
        Array.for_all
          (fun instr ->
            List.for_all
              (fun (r, file) ->
                match file with
                | `Int -> Hashtbl.mem written_i r
                | `Fp -> Hashtbl.mem written_f r)
              (Isa.reads instr))
          code
      in
      decodes && defined)

(* Trip counts are bounded by construction: the interpreter must reach the
   final ecall. *)
let programs_terminate =
  QCheck2.Test.make ~name:"generated programs terminate on the interpreter"
    ~count:30 ~print:string_of_int gen_seed (fun seed ->
      let spec = Tile_gen.generate ~seed in
      let b =
        match Tile_lower.lower spec with
        | Ok b -> b
        | Error e -> Alcotest.failf "lower: %s" e
      in
      let mem = Main_memory.create () in
      b.Tile_lower.setup mem;
      let m = Machine.create ~pc:(Program.entry b.Tile_lower.program) mem in
      Machine.set_args m (b.Tile_lower.args ~lo:0 ~hi:b.Tile_lower.n);
      let halt, _ = Interp.run b.Tile_lower.program m in
      halt = Interp.Ecall_halt && b.Tile_lower.check mem = Ok ())

(* {2 Mutation test: the harness catches an injected lowering bug} *)

let mutation_fabric =
  {
    Fuzz.fabric =
      { Fabric.rows = 8; cols = 8; ports = 4; kind = Interconnect.Mesh_noc; l1_kb = 32;
        l2_kb = 4096 };
    profile = false;
  }

(* The first generated program whose stores the Store_skew defect breaks. *)
let skewed_spec () =
  let rec find seed =
    if seed > 400 then Alcotest.fail "no seed triggered the defect"
    else
      let spec = Tile_gen.generate ~seed in
      match Fuzz.run_case ~defect:Tile_lower.Store_skew spec mutation_fabric with
      | Error _ -> spec
      | Ok _ -> find (seed + 1)
  in
  find 0

let mutation_is_caught_and_shrinks () =
  (* Scan fixed seeds for a program whose stores index with two or more
     loop variables — the shape Store_skew displaces — then demand the
     differential oracle catches it and the shrinker reduces it to a
     minimal reproducer that still fails (and still passes unskewed). *)
  let defect = Tile_lower.Store_skew in
  let spec = skewed_spec () in
  chk Alcotest.bool "clean lowering passes" true
    (Result.is_ok (Fuzz.run_case spec mutation_fabric));
  let shrunk, detail, steps = Fuzz.shrink ~defect spec mutation_fabric in
  chk Alcotest.bool "shrunk still fails" true
    (Result.is_error (Fuzz.run_case ~defect shrunk mutation_fabric));
  chk Alcotest.bool "shrunk passes without the defect" true
    (Result.is_ok (Fuzz.run_case shrunk mutation_fabric));
  chk Alcotest.bool "shrunk to at most 10 statements" true
    (Tile_dsl.stmt_count shrunk <= 10);
  chk Alcotest.bool "shrink made progress or was already minimal" true
    (steps >= 0 && detail <> "not reproducible")

(* {2 Corpus replay and the campaign report} *)

let replay_tells_malformed_from_failing () =
  let spec = skewed_spec () in
  let entry fields = Json.Assoc fields in
  let fabric = ("fabric", Fuzz.fabric_to_json mutation_fabric) in
  let good = entry [ fabric; ("shrunk", Tile_dsl.to_json spec) ] in
  let malformed what j =
    match Fuzz.replay j with
    | Error (Fuzz.Malformed _) -> ()
    | Error (Fuzz.Still_fails e) -> Alcotest.failf "%s: reported as a failing replay: %s" what e
    | Ok _ -> Alcotest.failf "%s: replayed" what
  in
  chk Alcotest.bool "a clean entry replays" true (Result.is_ok (Fuzz.replay good));
  (match Fuzz.replay ~defect:Tile_lower.Store_skew good with
  | Error (Fuzz.Still_fails _) -> ()
  | _ -> Alcotest.fail "the armed defect must still fail");
  chk Alcotest.bool "the original spec stands in for a missing shrunk one" true
    (Result.is_ok (Fuzz.replay (entry [ fabric; ("spec", Tile_dsl.to_json spec) ])));
  malformed "no fabric" (entry [ ("shrunk", Tile_dsl.to_json spec) ]);
  malformed "no spec" (entry [ fabric ]);
  malformed "bad spec" (entry [ fabric; ("shrunk", Json.Int 5) ]);
  malformed "bad fabric" (entry [ ("fabric", Json.String "x"); ("shrunk", Tile_dsl.to_json spec) ]);
  malformed "not an object" (Json.List [])

(* A corpus entry's [fabric] object, byte for byte; entries written
   without the [profile] key decode as unprofiled. *)
let fabric_bytes_pinned () =
  let fabric =
    { Fabric.rows = 6; cols = 4; ports = 16; kind = Interconnect.Hierarchical_rows;
      l1_kb = 32; l2_kb = 4096 }
  in
  let f = { Fuzz.fabric; profile = true } in
  let unprofiled =
    { Fuzz.fabric = { fabric with kind = Interconnect.Pure_mesh }; profile = false }
  in
  List.iter
    (fun (f, text) ->
      chk Alcotest.string "encoded bytes" text (Json.to_string ~indent:0 (Fuzz.fabric_to_json f));
      chk Alcotest.bool "decodes to the pinned fabric" true
        (Result.bind (Json.of_string text) Fuzz.fabric_of_json = Ok f))
    [
      (f, {|{"rows":6,"cols":4,"ports":16,"kind":"hier_rows","l1_kb":32,"l2_kb":4096,"profile":true}|});
      ( unprofiled,
        {|{"rows":6,"cols":4,"ports":16,"kind":"pure_mesh","l1_kb":32,"l2_kb":4096,"profile":false}|} );
    ];
  chk Alcotest.bool "absent profile decodes as unprofiled" true
    (Result.bind
       (Json.of_string {|{"rows":6,"cols":4,"ports":16,"kind":"pure_mesh","l1_kb":32,"l2_kb":4096}|})
       Fuzz.fabric_of_json
    = Ok unprofiled)

let report_writes_the_corpus () =
  let clean =
    { Fuzz.cases = 3; offloaded_cases = 2; total_offloads = 5; failures = []; digest = 0xab }
  in
  let dir = Filename.temp_dir "fuzz-corpus" "" in
  chk Alcotest.string "a clean campaign"
    "fuzz: seed 7, 3 case(s), 2 offloaded, 5 offload(s) total, digest 00000000000000ab\n\
     no differential mismatches\n"
    (Fuzz.report ~corpus:dir ~seed:7 clean);
  let spec = skewed_spec () in
  let failure =
    { Fuzz.index = 4; kernel_seed = 9; fabric = mutation_fabric; detail = "mismatch"; spec;
      shrunk = spec; shrunk_detail = "still"; shrink_steps = 0 }
  in
  let text = Fuzz.report ~corpus:dir ~seed:7 { clean with Fuzz.failures = [ failure ] } in
  let path = Filename.concat dir "fail-0004.json" in
  chk Alcotest.bool "names the fabric" true
    (List.mem "FAIL case 4 (kernel seed 9, 8x8 ports=4 mesh_noc L1:32K L2:4096K): mismatch"
       (String.split_on_char '\n' text));
  chk Alcotest.bool "names the corpus entry" true
    (List.mem ("  corpus: " ^ path) (String.split_on_char '\n' text));
  chk Alcotest.bool "counts the failures" true
    (String.ends_with ~suffix:"1 failing case(s)\n" text);
  (match Result.map (Fuzz.replay ~defect:Tile_lower.Store_skew) (Json.read_file path) with
  | Ok (Error (Fuzz.Still_fails _)) -> ()
  | _ -> Alcotest.fail "the written entry must replay as a failure");
  Sys.remove path;
  Sys.rmdir dir

(* {2 Campaign determinism} *)

let fuzz_digest_job_invariant () =
  (* The summary digest must not depend on the worker count. *)
  let run jobs = Fuzz.run ~jobs ~seed:11 ~count:12 () in
  let a = run 1 and b = run 4 in
  chk Alcotest.int "same case count" a.Fuzz.cases b.Fuzz.cases;
  chk Alcotest.int "same offloaded cases" a.Fuzz.offloaded_cases b.Fuzz.offloaded_cases;
  chk Alcotest.int "same total offloads" a.Fuzz.total_offloads b.Fuzz.total_offloads;
  chk Alcotest.bool "no failures" true
    (a.Fuzz.failures = [] && b.Fuzz.failures = []);
  chk Alcotest.bool "bit-identical digest" true (a.Fuzz.digest = b.Fuzz.digest)

let suites =
  [
    ( "tile_dsl",
      [
        Alcotest.test_case "affine load/store lowering" `Quick affine_load_store_lowering;
        Alcotest.test_case "reduction lowering" `Quick reduction_lowering;
        Alcotest.test_case "guard lowering" `Quick guard_lowering;
        Alcotest.test_case "tile / untile lowering" `Quick tile_lowering;
        Alcotest.test_case "validate rejects bad shapes" `Quick validate_rejects_bad_shapes;
        QCheck_alcotest.to_alcotest generated_specs_are_valid;
        Alcotest.test_case "rejected draw is re-drawn" `Quick rejected_draw_is_redrawn;
        QCheck_alcotest.to_alcotest lowering_is_deterministic;
        QCheck_alcotest.to_alcotest json_roundtrip;
        QCheck_alcotest.to_alcotest programs_well_formed;
        QCheck_alcotest.to_alcotest programs_terminate;
      ] );
    ( "fuzz",
      [
        Alcotest.test_case "mutation caught and shrunk" `Quick mutation_is_caught_and_shrinks;
        Alcotest.test_case "digest invariant across jobs" `Quick fuzz_digest_job_invariant;
        Alcotest.test_case "replay tells malformed from failing" `Quick
          replay_tells_malformed_from_failing;
        Alcotest.test_case "report writes the corpus" `Quick report_writes_the_corpus;
        Alcotest.test_case "fabric bytes pinned" `Quick fabric_bytes_pinned;
      ] );
  ]
