let check = Alcotest.check

let instr_testable = Alcotest.testable Isa.pp ( = )

(* Golden encodings cross-checked against the RISC-V specification /
   binutils output. *)
let golden_encodings () =
  let cases =
    [
      (Isa.Itype (Isa.ADDI, 1, 0, 1), 0x00100093l);          (* addi ra, zero, 1 *)
      (Isa.Rtype (Isa.ADD, 3, 1, 2), 0x002081B3l);           (* add gp, ra, sp *)
      (Isa.Rtype (Isa.SUB, 3, 1, 2), 0x402081B3l);           (* sub gp, ra, sp *)
      (Isa.Rtype (Isa.MUL, 10, 11, 12), 0x02C58533l);        (* mul a0, a1, a2 *)
      (Isa.Load (Isa.LW, 5, 10, 8), 0x00852283l);            (* lw t0, 8(a0) *)
      (Isa.Store (Isa.SW, 5, 10, 12), 0x00552623l);          (* sw t0, 12(a0) *)
      (Isa.Branch (Isa.BNE, 5, 6, -4), 0xFE629EE3l);         (* bne t0, t1, -4 *)
      (Isa.Lui (7, 0x12345000), 0x123453B7l);                (* lui t2, 0x12345 *)
      (Isa.Jal (1, 2048), 0x001000EFl);                      (* jal ra, 2048 *)
      (Isa.Jalr (0, 1, 0), 0x00008067l);                     (* ret *)
      (Isa.Ftype (Isa.FADD, 1, 2, 3), 0x003170D3l);          (* fadd.s ft1, ft2, ft3 *)
      (Isa.Flw (2, 10, 4), 0x00452107l);                     (* flw ft2, 4(a0) *)
      (Isa.Fsw (2, 10, 4), 0x00252227l);                     (* fsw ft2, 4(a0) *)
      (Isa.Ecall, 0x00000073l);
      (Isa.Ebreak, 0x00100073l);
    ]
  in
  List.iter
    (fun (instr, word) ->
      check Alcotest.int32
        (Format.asprintf "%a" Isa.pp instr)
        word (Encode.to_word instr))
    cases

let golden_decodings () =
  List.iter
    (fun (word, instr) ->
      match Decode.of_word word with
      | Ok got -> check instr_testable (Printf.sprintf "0x%lx" word) instr got
      | Error e -> Alcotest.failf "decode 0x%lx failed: %s" word e)
    [
      (0x00100093l, Isa.Itype (Isa.ADDI, 1, 0, 1));
      (0xFE629EE3l, Isa.Branch (Isa.BNE, 5, 6, -4));
      (0x00008067l, Isa.Jalr (0, 1, 0));
      (0x0000100Fl, Isa.Fence);
    ]

let decode_rejects_garbage () =
  List.iter
    (fun w ->
      match Decode.of_word w with
      | Ok i -> Alcotest.failf "0x%lx should not decode (got %s)" w (Disasm.to_string i)
      | Error _ -> ())
    [ 0xFFFFFFFFl; 0x0000007Fl; 0x0l ]

let roundtrip =
  QCheck2.Test.make ~name:"encode/decode roundtrip" ~count:2000 Gen.instr (fun i ->
      match Decode.of_word (Encode.to_word i) with
      | Ok i' -> i = i'
      | Error _ -> false)

let encode_range_checks () =
  let expect_fail name f =
    match f () with
    | exception Encode.Unencodable _ -> ()
    | _ -> Alcotest.failf "%s should be unencodable" name
  in
  expect_fail "imm12 overflow" (fun () -> Encode.to_word (Isa.Itype (Isa.ADDI, 1, 1, 4096)));
  expect_fail "bad register" (fun () -> Encode.to_word (Isa.Rtype (Isa.ADD, 32, 0, 0)));
  expect_fail "odd branch offset" (fun () -> Encode.to_word (Isa.Branch (Isa.BEQ, 0, 0, 3)));
  expect_fail "branch too far" (fun () -> Encode.to_word (Isa.Branch (Isa.BEQ, 0, 0, 8192)));
  expect_fail "lui low bits" (fun () -> Encode.to_word (Isa.Lui (1, 0x123)))

let reg_names () =
  check Alcotest.string "zero" "zero" (Reg.name 0);
  check Alcotest.string "a0" "a0" (Reg.name 10);
  check Alcotest.string "t6" "t6" (Reg.name 31);
  check Alcotest.string "fa0" "fa0" (Reg.fname 10);
  check Alcotest.bool "valid" true (Reg.valid 31);
  check Alcotest.bool "invalid" false (Reg.valid 32)

let isa_classification () =
  check Alcotest.bool "lw is memory" true (Isa.is_memory (Isa.Load (Isa.LW, 1, 2, 0)));
  check Alcotest.bool "lw is load" true (Isa.is_load (Isa.Load (Isa.LW, 1, 2, 0)));
  check Alcotest.bool "sw is store" true (Isa.is_store (Isa.Store (Isa.SW, 1, 2, 0)));
  check Alcotest.bool "beq is a branch" true
    (Isa.op_class (Isa.Branch (Isa.BEQ, 1, 2, 4)) = Isa.C_branch);
  check Alcotest.bool "fadd is fp" true (Isa.is_fp (Isa.Ftype (Isa.FADD, 1, 2, 3)));
  check Alcotest.bool "add not fp" false (Isa.is_fp (Isa.Rtype (Isa.ADD, 1, 2, 3)))

let isa_reads_writes () =
  let add = Isa.Rtype (Isa.ADD, 3, 1, 2) in
  check (Alcotest.option Alcotest.int) "add writes" (Some 3) (Isa.writes_int add);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool)) "add reads"
    [ (1, true); (2, true) ]
    (List.map (fun (r, f) -> (r, f = `Int)) (Isa.reads add));
  let fsw = Isa.Fsw (4, 10, 8) in
  check (Alcotest.option Alcotest.int) "fsw no int dest" None (Isa.writes_int fsw);
  check (Alcotest.option Alcotest.int) "fsw no fp dest" None (Isa.writes_fp fsw);
  check Alcotest.int "fsw reads both files" 2 (List.length (Isa.reads fsw));
  let fsqrt = Isa.Ftype (Isa.FSQRT, 1, 2, 0) in
  check Alcotest.int "fsqrt single source" 1 (List.length (Isa.reads fsqrt))

let isa_branch_offset () =
  check (Alcotest.option Alcotest.int) "branch" (Some (-8))
    (Isa.branch_offset (Isa.Branch (Isa.BEQ, 1, 2, -8)));
  check (Alcotest.option Alcotest.int) "jal" (Some 16) (Isa.branch_offset (Isa.Jal (1, 16)));
  check (Alcotest.option Alcotest.int) "add" None (Isa.branch_offset (Isa.Rtype (Isa.ADD, 1, 2, 3)))

let asm_labels_and_branches () =
  let b = Asm.create ~base:0x2000 () in
  Asm.label b "top";
  Asm.addi b Reg.t0 Reg.t0 1;
  Asm.blt b Reg.t0 Reg.a0 "top";
  Asm.j b "end";
  Asm.nop b;
  Asm.label b "end";
  Asm.ret b;
  let prog = Asm.assemble b in
  check Alcotest.int "base" 0x2000 (Program.base prog);
  check instr_testable "backward branch" (Isa.Branch (Isa.BLT, 5, 10, -4))
    (Program.fetch_exn prog 0x2004);
  check instr_testable "forward jump" (Isa.Jal (0, 8)) (Program.fetch_exn prog 0x2008);
  check Alcotest.int "label address" 0x2010 (Program.symbol prog "end")

let asm_undefined_label () =
  let b = Asm.create () in
  Asm.j b "nowhere";
  Alcotest.check_raises "undefined" (Failure "Asm: undefined label nowhere") (fun () ->
      ignore (Asm.assemble b))

let asm_duplicate_label () =
  let b = Asm.create () in
  Asm.label b "x";
  Alcotest.check_raises "duplicate" (Failure "Asm: duplicate label x") (fun () ->
      Asm.label b "x")

let asm_li_expansion () =
  let cases = [ 0; 1; -1; 2047; -2048; 2048; 0x12345678; -0x12345678; min_int land 0xFFFFFFFF |> Machine.to_s32; 0x7FFFFFFF ] in
  List.iter
    (fun v ->
      let b = Asm.create () in
      Asm.li b Reg.t0 v;
      Asm.ecall b;
      let prog = Asm.assemble b in
      let mem = Main_memory.create ~size:4096 () in
      let m = Machine.create ~pc:(Program.entry prog) mem in
      let _ = Interp.run prog m in
      check Alcotest.int (Printf.sprintf "li %d" v) (Machine.to_s32 v) (Machine.get_x m Reg.t0))
    cases

let program_fetch_bounds () =
  let prog = Program.make ~base:0x1000 [| Isa.Fence; Isa.Ecall |] in
  check (Alcotest.option instr_testable) "in range" (Some Isa.Ecall) (Program.fetch prog 0x1004);
  check (Alcotest.option instr_testable) "below" None (Program.fetch prog 0xFFC);
  check (Alcotest.option instr_testable) "above" None (Program.fetch prog 0x1008);
  check (Alcotest.option instr_testable) "misaligned" None (Program.fetch prog 0x1002);
  check Alcotest.int "index" 1 (Program.index_of_addr prog 0x1004);
  check Alcotest.int "addr" 0x1004 (Program.addr_of_index prog 1)

let program_words_roundtrip () =
  let b = Asm.create () in
  Asm.li b Reg.a0 12345;
  Asm.add b Reg.a1 Reg.a0 Reg.a0;
  Asm.ecall b;
  let prog = Asm.assemble b in
  match Program.of_words ~base:(Program.base prog) (Program.words prog) with
  | Ok prog' ->
    check (Alcotest.array instr_testable) "code preserved" (Program.code prog)
      (Program.code prog')
  | Error e -> Alcotest.fail e

let program_pragmas () =
  let b = Asm.create () in
  Asm.nop b;
  Asm.pragma b Program.Omp_parallel;
  Asm.label b "loop";
  Asm.nop b;
  let prog = Asm.assemble b in
  check Alcotest.bool "pragma at loop" true
    (Program.pragma_at prog (Program.symbol prog "loop") = Some Program.Omp_parallel);
  check Alcotest.bool "no pragma at entry" true (Program.pragma_at prog (Program.base prog) = None)

let disasm_text () =
  check Alcotest.string "add" "add t0, t1, t2" (Disasm.to_string (Isa.Rtype (Isa.ADD, 5, 6, 7)));
  check Alcotest.string "lw" "lw a0, 8(sp)" (Disasm.to_string (Isa.Load (Isa.LW, 10, 2, 8)));
  check Alcotest.string "fsqrt" "fsqrt.s ft1, ft2" (Disasm.to_string (Isa.Ftype (Isa.FSQRT, 1, 2, 0)))

let latency_tables () =
  check Alcotest.bool "cpu alu is 1" true (Latency.cpu Isa.C_alu = 1);
  check Alcotest.bool "accel add is 3 (Fig 2)" true (Latency.accel Isa.C_alu = 3);
  check Alcotest.bool "accel mul is 5 (Fig 2)" true (Latency.accel Isa.C_mul = 5);
  check Alcotest.bool "div occupies fully" true
    (Latency.occupancy_cpu Isa.C_div = Latency.cpu Isa.C_div);
  check Alcotest.bool "alu pipelined" true (Latency.occupancy_cpu Isa.C_alu = 1)

let suites =
  [
    ( "riscv",
      [
        Alcotest.test_case "golden encodings" `Quick golden_encodings;
        Alcotest.test_case "golden decodings" `Quick golden_decodings;
        Alcotest.test_case "decode rejects garbage" `Quick decode_rejects_garbage;
        QCheck_alcotest.to_alcotest roundtrip;
        Alcotest.test_case "encode range checks" `Quick encode_range_checks;
        Alcotest.test_case "register names" `Quick reg_names;
        Alcotest.test_case "isa classification" `Quick isa_classification;
        Alcotest.test_case "isa reads/writes" `Quick isa_reads_writes;
        Alcotest.test_case "branch offsets" `Quick isa_branch_offset;
        Alcotest.test_case "asm labels/branches" `Quick asm_labels_and_branches;
        Alcotest.test_case "asm undefined label" `Quick asm_undefined_label;
        Alcotest.test_case "asm duplicate label" `Quick asm_duplicate_label;
        Alcotest.test_case "li expansion" `Quick asm_li_expansion;
        Alcotest.test_case "program bounds" `Quick program_fetch_bounds;
        Alcotest.test_case "program words roundtrip" `Quick program_words_roundtrip;
        Alcotest.test_case "program pragmas" `Quick program_pragmas;
        Alcotest.test_case "disasm text" `Quick disasm_text;
        Alcotest.test_case "latency tables" `Quick latency_tables;
      ] );
  ]
