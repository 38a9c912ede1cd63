let check = Alcotest.check

(* -------------------- branch predictor -------------------- *)

let predictor_learns_bias () =
  let p = Predictor.create () in
  for _ = 1 to 100 do
    ignore (Predictor.predict_and_update p 0x1000 true)
  done;
  check Alcotest.bool "predicts taken" true (Predictor.predict_and_update p 0x1000 true);
  check Alcotest.bool "few mispredicts" true (Predictor.mispredicts p <= 2)

let predictor_loop_exit_pattern () =
  let p = Predictor.create () in
  (* 10 iterations taken, then one not-taken exit, repeated. *)
  let mispredicts_before = Predictor.mispredicts p in
  for _ = 1 to 5 do
    for _ = 1 to 10 do
      ignore (Predictor.predict_and_update p 0x2000 true)
    done;
    ignore (Predictor.predict_and_update p 0x2000 false)
  done;
  let m = Predictor.mispredicts p - mispredicts_before in
  check Alcotest.bool "roughly one mispredict per exit" true (m >= 5 && m <= 11)

let predictor_aliasing_distinct () =
  let p = Predictor.create () in
  for _ = 1 to 50 do
    ignore (Predictor.predict_and_update p 0x1000 true);
    ignore (Predictor.predict_and_update p 0x1004 false)
  done;
  check Alcotest.bool "both learned" true
    (Predictor.predict_and_update p 0x1000 true
     && Predictor.predict_and_update p 0x1004 false)

let predictor_pow2_check () =
  Alcotest.check_raises "entries must be a power of two"
    (Invalid_argument "Predictor.create: entries must be a power of two") (fun () ->
      ignore (Predictor.create ~entries:1000 ()))

(* -------------------- OoO model -------------------- *)

let run_events cfg events =
  let hier = Hierarchy.create Hierarchy.default_config in
  let model = Ooo_model.create cfg hier in
  List.iter (Ooo_model.feed model) events;
  Ooo_model.summary model

let ev ?(addr = 0x1000) ?mem_addr ?taken instr =
  { Interp.addr; instr; mem_addr; taken; next_pc = addr + 4 }

let independent_adds n =
  List.init n (fun i -> ev ~addr:(0x1000 + (4 * i)) (Isa.Itype (Isa.ADDI, 1 + (i mod 8), 0, 1)))

let ooo_width_bound () =
  let s = run_events Ooo_model.default_config (independent_adds 400) in
  let cyc = float_of_int s.Ooo_model.cycles in
  check Alcotest.bool "near width-limited" true (cyc >= 100.0 && cyc <= 140.0)

let ooo_dependent_chain () =
  (* addi x1, x1, 1 repeated: one per cycle no matter the width. *)
  let events =
    List.init 200 (fun i -> ev ~addr:(0x1000 + (4 * i)) (Isa.Itype (Isa.ADDI, 1, 1, 1)))
  in
  let s = run_events Ooo_model.default_config events in
  check Alcotest.bool "serialized" true (s.Ooo_model.cycles >= 200)

let ooo_divider_occupancy () =
  let events =
    List.init 20 (fun i -> ev ~addr:(0x1000 + (4 * i)) (Isa.Rtype (Isa.DIV, 1 + (i mod 4), 5, 6)))
  in
  let s = run_events Ooo_model.default_config events in
  (* One unpipelined divider: ~20 cycles each. *)
  check Alcotest.bool "divider is the bottleneck" true (s.Ooo_model.cycles >= 20 * 20)

let ooo_mispredict_costs () =
  (* Alternating taken/not-taken branch: unpredictable. *)
  let bad =
    List.init 200 (fun i ->
        ev ~addr:0x1000 ~taken:(i mod 2 = 0) (Isa.Branch (Isa.BEQ, 1, 2, 16)))
  in
  let good =
    List.init 200 (fun _ -> ev ~addr:0x1000 ~taken:true (Isa.Branch (Isa.BEQ, 1, 2, 16)))
  in
  let sb = run_events Ooo_model.default_config bad in
  let sg = run_events Ooo_model.default_config good in
  check Alcotest.bool "mispredicts recorded" true (sb.Ooo_model.mispredicts > 50);
  check Alcotest.bool "mispredicts cost cycles" true (sb.Ooo_model.cycles > 2 * sg.Ooo_model.cycles)

let ooo_rob_limits_miss_overlap () =
  (* Strided cold loads: a small ROB cannot hide DRAM misses. *)
  let loads n =
    List.init n (fun i ->
        ev ~addr:(0x1000 + (4 * i)) ~mem_addr:(i * 64) (Isa.Load (Isa.LW, 1 + (i mod 8), 20, 0)))
  in
  let big = run_events { Ooo_model.default_config with Ooo_model.rob_size = 256 } (loads 200) in
  let small = run_events { Ooo_model.default_config with Ooo_model.rob_size = 8 } (loads 200) in
  check Alcotest.bool "bigger ROB faster" true (big.Ooo_model.cycles < small.Ooo_model.cycles)

let ooo_counters () =
  let events =
    [
      { (ev (Isa.Load (Isa.LW, 1, 2, 0))) with Interp.mem_addr = Some 0 };
      { (ev (Isa.Store (Isa.SW, 1, 2, 0))) with Interp.mem_addr = Some 4 };
      ev (Isa.Ftype (Isa.FADD, 1, 2, 3));
      ev (Isa.Rtype (Isa.ADD, 1, 2, 3));
      ev ~taken:false (Isa.Branch (Isa.BEQ, 1, 2, 8));
    ]
  in
  let s = run_events Ooo_model.default_config events in
  check Alcotest.int "loads" 1 s.Ooo_model.loads;
  check Alcotest.int "stores" 1 s.Ooo_model.stores;
  check Alcotest.int "fp" 1 s.Ooo_model.fp_ops;
  check Alcotest.int "int" 1 s.Ooo_model.int_ops;
  check Alcotest.int "branches" 1 s.Ooo_model.branches;
  check Alcotest.int "instructions" 5 s.Ooo_model.instructions

let ooo_ipc () =
  let s = run_events Ooo_model.default_config (independent_adds 100) in
  check Alcotest.bool "ipc positive" true (Ooo_model.ipc s > 1.0);
  let empty = run_events Ooo_model.default_config [] in
  check (Alcotest.float 0.0) "empty ipc" 0.0 (Ooo_model.ipc empty)

(* -------------------- coupled run -------------------- *)

let cpu_run_end_to_end () =
  let b = Asm.create () in
  let open Reg in
  Asm.li b t0 0;
  Asm.label b "loop";
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a0 "loop";
  Asm.ecall b;
  let prog = Asm.assemble b in
  let m = Machine.create ~pc:(Program.entry prog) (Main_memory.create ~size:4096 ()) in
  Machine.set_x m a0 100;
  let r = Cpu_run.run prog m in
  check Alcotest.bool "halted" true (r.Cpu_run.halt = Interp.Ecall_halt);
  check Alcotest.int "architecture correct" 100 (Machine.get_x m t0);
  check Alcotest.bool "cycles sane" true
    (Cpu_run.cycles r > 50 && Cpu_run.cycles r < 2000);
  check Alcotest.bool "ipc sane" true (Cpu_run.ipc r > 0.1 && Cpu_run.ipc r < 4.0)

let suites =
  [
    ( "predictor",
      [
        Alcotest.test_case "learns bias" `Quick predictor_learns_bias;
        Alcotest.test_case "loop exit pattern" `Quick predictor_loop_exit_pattern;
        Alcotest.test_case "distinct branches" `Quick predictor_aliasing_distinct;
        Alcotest.test_case "power-of-two check" `Quick predictor_pow2_check;
      ] );
    ( "ooo_model",
      [
        Alcotest.test_case "width bound" `Quick ooo_width_bound;
        Alcotest.test_case "dependent chain serializes" `Quick ooo_dependent_chain;
        Alcotest.test_case "divider occupancy" `Quick ooo_divider_occupancy;
        Alcotest.test_case "mispredicts cost" `Quick ooo_mispredict_costs;
        Alcotest.test_case "ROB limits miss overlap" `Quick ooo_rob_limits_miss_overlap;
        Alcotest.test_case "class counters" `Quick ooo_counters;
        Alcotest.test_case "ipc" `Quick ooo_ipc;
        Alcotest.test_case "coupled run" `Quick cpu_run_end_to_end;
      ] );
  ]
