let check = Alcotest.check

let region_of instrs =
  let arr = Array.of_list instrs in
  {
    Region.entry = 0x1000;
    back_branch_addr = 0x1000 + (4 * (Array.length arr - 1));
    instrs = arr;
    pragma = None;
    observed_iterations = 8;
  }

(* t1 and t2 both compute in1[t0*4 base] addresses the same way; the two
   slli+add chains are value-identical. *)
let duplicate_address_loop =
  [
    Isa.Itype (Isa.SLLI, 6, 5, 2);  (* t1 = t0 << 2 *)
    Isa.Rtype (Isa.ADD, 6, 6, 10);  (* t1 += a0 *)
    Isa.Itype (Isa.SLLI, 7, 5, 2);  (* t2 = t0 << 2   (duplicate) *)
    Isa.Rtype (Isa.ADD, 7, 7, 10);  (* t2 += a0       (duplicate) *)
    Isa.Load (Isa.LW, 28, 6, 0);
    Isa.Load (Isa.LW, 29, 7, 4);
    Isa.Rtype (Isa.ADD, 30, 28, 29);
    Isa.Store (Isa.SW, 30, 11, 0);
    Isa.Itype (Isa.ADDI, 11, 11, 4);
    Isa.Itype (Isa.ADDI, 5, 5, 1);
    Isa.Branch (Isa.BLT, 5, 13, -40);
  ]

let cse_removes_duplicates () =
  let dfg = Ldfg.build_exn (region_of duplicate_address_loop) in
  let reduced, eliminated = Cse.apply dfg in
  check Alcotest.int "two nodes eliminated" 2 eliminated;
  check Alcotest.int "graph shrank" (Dfg.node_count dfg - 2) (Dfg.node_count reduced);
  check Alcotest.bool "still valid" true (Dfg.validate reduced = Ok ());
  (* The two loads now share one address producer. *)
  let loads =
    List.filter (fun i -> Isa.is_memory reduced.Dfg.nodes.(i).Dfg.instr)
      (List.init (Dfg.node_count reduced) Fun.id)
  in
  match loads with
  | [ l1; l2; _store ] ->
    check Alcotest.bool "shared address chain" true
      (reduced.Dfg.nodes.(l1).Dfg.srcs.(0) = reduced.Dfg.nodes.(l2).Dfg.srcs.(0))
  | _ -> Alcotest.fail "unexpected memory node count"

let cse_preserves_execution () =
  let region = region_of duplicate_address_loop in
  let dfg = Ldfg.build_exn region in
  let reduced, _ = Cse.apply dfg in
  let run d =
    let model = Perf_model.create d in
    let placement =
      Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model)
    in
    let mem = Main_memory.create () in
    Main_memory.blit_words mem 0x10000 (Array.init 128 (fun i -> 3 * i));
    let machine = Machine.create ~pc:0x1000 mem in
    Machine.set_args machine [ (10, 0x10000); (11, 0x20000); (5, 0); (13, 100) ];
    let hier = Hierarchy.create Hierarchy.default_config in
    match
      Engine.execute ~config:(Accel_config.plain placement) ~dfg:d ~machine ~hier ()
    with
    | Ok _ -> mem
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "identical memory effects" true
    (Main_memory.equal (run dfg) (run reduced))

let cse_respects_guards_and_memory () =
  let instrs =
    [
      Isa.Branch (Isa.BEQ, 6, 0, 12);
      Isa.Itype (Isa.ADDI, 7, 5, 1);  (* guarded: not eligible *)
      Isa.Itype (Isa.ADDI, 28, 5, 1); (* guarded: not eligible *)
      Isa.Load (Isa.LW, 29, 10, 0);   (* memory: not eligible *)
      Isa.Load (Isa.LW, 30, 10, 0);   (* memory: kept even though identical *)
      Isa.Itype (Isa.ADDI, 5, 5, 1);
      Isa.Branch (Isa.BLT, 5, 13, -24);
    ]
  in
  let dfg = Ldfg.build_exn (region_of instrs) in
  check Alcotest.bool "guarded ineligible" false (Cse.eligible dfg 1);
  check Alcotest.bool "load ineligible" false (Cse.eligible dfg 3);
  check Alcotest.bool "branch ineligible" false (Cse.eligible dfg 0);
  check Alcotest.bool "plain addi eligible" true (Cse.eligible dfg 5);
  let _, eliminated = Cse.apply dfg in
  check Alcotest.int "nothing eliminated" 0 eliminated

let cse_distinguishes_immediates_and_ops () =
  let instrs =
    [
      Isa.Itype (Isa.ADDI, 6, 5, 1);
      Isa.Itype (Isa.ADDI, 7, 5, 2);  (* different immediate *)
      Isa.Rtype (Isa.ADD, 28, 5, 5);
      Isa.Rtype (Isa.XOR, 29, 5, 5);  (* different op *)
      Isa.Itype (Isa.ADDI, 5, 5, 3);  (* distinct immediate from node 0 *)
      Isa.Branch (Isa.BLT, 5, 13, -20);
    ]
  in
  let dfg = Ldfg.build_exn (region_of instrs) in
  let _, eliminated = Cse.apply dfg in
  check Alcotest.int "no false merges" 0 eliminated

let cse_kernels_noop_or_safe () =
  (* Hand-written kernels carry no duplicates; CSE must be an identity
     there — and must never break equivalence anywhere (the controller runs
     it by default, so the whole engine suite already re-checks this). *)
  List.iter
    (fun (k : Kernel.t) ->
      let dfg = Runner.dfg_of_kernel k in
      let reduced, eliminated = Cse.apply dfg in
      check Alcotest.bool (k.Kernel.name ^ " valid after cse") true
        (Dfg.validate reduced = Ok ());
      check Alcotest.int (k.Kernel.name ^ " node accounting")
        (Dfg.node_count dfg) (Dfg.node_count reduced + eliminated))
    (Workloads.all ())

let cse_random_loops_equivalent =
  QCheck2.Test.make ~name:"cse preserves controller equivalence" ~count:40
    ~print:Gen.loop_spec_print Gen.loop_spec (fun spec ->
      (* The controller applies CSE when optimizing; compare against the
         plain interpreter. Random bodies reuse temporaries heavily, so
         eliminations actually occur on many of these graphs. *)
      let prog, m_ref = Gen.build_loop spec in
      let m_mesa = Machine.copy m_ref ~mem:(Main_memory.copy m_ref.Machine.mem) () in
      let _ = Interp.run prog m_ref in
      let report = Controller.run prog m_mesa in
      report.Controller.halt = Interp.Ecall_halt
      && Main_memory.equal m_ref.Machine.mem m_mesa.Machine.mem)

(* -------------------- gshare -------------------- *)

let gshare_learns_alternation () =
  let bim = Predictor.create () in
  let gsh = Predictor.create ~kind:(Predictor.Gshare 8) () in
  for i = 1 to 400 do
    let dir = i mod 2 = 0 in
    ignore (Predictor.predict_and_update bim 0x1000 dir);
    ignore (Predictor.predict_and_update gsh 0x1000 dir)
  done;
  check Alcotest.bool "bimodal thrashes" true (Predictor.mispredicts bim > 100);
  check Alcotest.bool "gshare locks on" true (Predictor.mispredicts gsh < 40)

let gshare_biased_branches_fine () =
  let gsh = Predictor.create ~kind:(Predictor.Gshare 8) () in
  for _ = 1 to 200 do
    ignore (Predictor.predict_and_update gsh 0x1000 true)
  done;
  check Alcotest.bool "biased branch predicted" true (Predictor.mispredicts gsh <= 8)

let suites =
  [
    ( "cse",
      [
        Alcotest.test_case "removes duplicates" `Quick cse_removes_duplicates;
        Alcotest.test_case "preserves execution" `Quick cse_preserves_execution;
        Alcotest.test_case "respects guards and memory" `Quick cse_respects_guards_and_memory;
        Alcotest.test_case "distinguishes immediates/ops" `Quick
          cse_distinguishes_immediates_and_ops;
        Alcotest.test_case "identity on hand-written kernels" `Quick cse_kernels_noop_or_safe;
        QCheck_alcotest.to_alcotest cse_random_loops_equivalent;
      ] );
    ( "gshare",
      [
        Alcotest.test_case "learns alternation" `Quick gshare_learns_alternation;
        Alcotest.test_case "biased branches fine" `Quick gshare_biased_branches_fine;
      ] );
  ]
