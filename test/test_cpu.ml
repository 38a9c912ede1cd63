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

(* A synthetic retired-instruction stream: each instruction gets its own
   code slot of a program built from the stream, and is charged at [pc]. *)
type retired = { pc : int; instr : Isa.t; mem_addr : int; taken : bool }

let run_events cfg events =
  let hier = Hierarchy.create Hierarchy.default_config in
  let prog = Program.make (Array.of_list (List.map (fun e -> e.instr) events)) in
  let model = Ooo_model.create cfg hier prog in
  List.iteri
    (fun slot e -> Ooo_model.retire model slot ~pc:e.pc ~mem_addr:e.mem_addr ~taken:e.taken)
    events;
  Ooo_model.summary model

let ev ?(addr = 0x1000) ?(mem_addr = 0) ?(taken = false) instr =
  { pc = addr; instr; mem_addr; taken }

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
      ev ~mem_addr:0 (Isa.Load (Isa.LW, 1, 2, 0));
      ev ~mem_addr:4 (Isa.Store (Isa.SW, 1, 2, 0));
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

(* {2 The decoded model matches the event-driven one}

   [Ooo_reference] is the model as it was before decoding: one event per
   retired instruction, every timing fact re-derived from the instruction.
   Both must reach the same halt, the same machine and the same summary. *)

let same_summary what (a : Ooo_model.summary) (b : Ooo_model.summary) =
  let field name f = check Alcotest.int (what ^ ": " ^ name) (f b) (f a) in
  field "cycles" (fun s -> s.Ooo_model.cycles);
  field "instructions" (fun s -> s.Ooo_model.instructions);
  field "mispredicts" (fun s -> s.Ooo_model.mispredicts);
  field "loads" (fun s -> s.Ooo_model.loads);
  field "stores" (fun s -> s.Ooo_model.stores);
  field "int_ops" (fun s -> s.Ooo_model.int_ops);
  field "fp_ops" (fun s -> s.Ooo_model.fp_ops);
  field "branches" (fun s -> s.Ooo_model.branches);
  field "load_latency_sum" (fun s -> s.Ooo_model.load_latency_sum);
  field "rob_stalls" (fun s -> s.Ooo_model.rob_stalls);
  field "fetch_refills" (fun s -> s.Ooo_model.fetch_refills)

(* Run [prog] from [machine] on both models, each on its own copy of the
   machine and memory and on its own hierarchy of [hiers]. *)
let against_reference what ?config (hier_new, hier_ref) prog machine =
  let copy () = Machine.copy machine ~mem:(Main_memory.copy machine.Machine.mem) () in
  let m_new = copy () and m_ref = copy () in
  let r = Cpu_run.run ?config ~hierarchy:hier_new prog m_new in
  let halt, summary = Ooo_reference.run ?config ~hierarchy:hier_ref prog m_ref in
  check Alcotest.bool (what ^ ": same halt") true (r.Cpu_run.halt = halt);
  check Alcotest.bool (what ^ ": same registers") true (Machine.arch_equal m_ref m_new);
  check Alcotest.bool (what ^ ": same memory") true
    (Main_memory.equal m_ref.Machine.mem m_new.Machine.mem);
  same_summary what r.Cpu_run.summary summary

let default_hier () = Hierarchy.create Hierarchy.default_config
let two_hiers make = (make (), make ())

let dynaspam_config = Runner.dynaspam_core Dynaspam.default_config

let oracle_kernels () =
  List.iter
    (fun (k : Kernel.t) ->
      let machine = Kernel.prepare k (Main_memory.create ()) in
      let name = k.Kernel.name in
      against_reference name (two_hiers default_hier) k.Kernel.program machine;
      against_reference (name ^ " (dynaspam)") ~config:dynaspam_config
        (two_hiers default_hier) k.Kernel.program machine)
    (Workloads.all ())

(* Every slice of a 4-core run, each on its member of a shared-L2 group,
   in [Multicore.run]'s order: the L2 state one slice leaves is the next
   one's start. *)
let oracle_multicore () =
  let k = Workloads.find "kmeans" in
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let cores = 4 in
  let shared () = Hierarchy.create_shared Hierarchy.default_config ~cores in
  let hiers_new = shared () and hiers_ref = shared () in
  for i = 0 to cores - 1 do
    let lo = k.Kernel.n * i / cores and hi = k.Kernel.n * (i + 1) / cores in
    let machine = Kernel.prepare_slice k mem ~lo ~hi in
    against_reference (Printf.sprintf "kmeans slice %d/%d" i cores)
      (hiers_new.(i), hiers_ref.(i)) k.Kernel.program machine
  done

(* Generated tile programs, each on a fuzz-drawn cache hierarchy, at the
   default core and at the DynaSpAM fabric's. *)
let oracle_generated () =
  for seed = 1 to 200 do
    let spec = Tile_gen.generate ~seed in
    match Tile_lower.lower spec with
    | Error e -> Alcotest.failf "seed %d: %s" seed e
    | Ok b ->
      let mem = Main_memory.create () in
      b.Tile_lower.setup mem;
      let machine = Machine.create ~pc:(Program.entry b.Tile_lower.program) mem in
      Machine.set_args machine (b.Tile_lower.args ~lo:0 ~hi:b.Tile_lower.n);
      let f = Fuzz.draw_fabric (Prng.create seed) in
      let hier () = Hierarchy.create (Fabric.hier_config f.Fuzz.fabric) in
      let config = if seed land 1 = 0 then Ooo_model.default_config else dynaspam_config in
      against_reference (Printf.sprintf "tile seed %d" seed) ~config (two_hiers hier)
        b.Tile_lower.program machine
  done

(* {2 The timed step allocates nothing}

   Minor words per retired instruction of [Cpu_run.run], counted in this
   domain ([Gc.minor_words]): a pool domain of an earlier test folds its
   counts into [Gc.quick_stat]'s when it retires, and [Gc.counters]'
   minor count lags until the next minor collection, so a run that
   allocates less than the minor heap would read 0 there. The hierarchy
   is warmed by a first run, so a cache set's first-touch storage does not
   count. *)
let cpu_run_allocation () =
  List.iter
    (fun name ->
      let k = Workloads.find name in
      let hierarchy = default_hier () in
      let run () =
        let machine = Kernel.prepare k (Main_memory.create ()) in
        let before = Gc.minor_words () in
        let r = Cpu_run.run ~hierarchy k.Kernel.program machine in
        (Gc.minor_words () -. before) /. float_of_int r.Cpu_run.summary.Ooo_model.instructions
      in
      ignore (run ());
      let per_instr = run () in
      if per_instr >= 0.1 then
        Alcotest.failf "%s: %.3f minor words per retired instruction" name per_instr)
    [ "nn"; "kmeans"; "bfs" ]

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
        Alcotest.test_case "coupled run allocates nothing" `Quick cpu_run_allocation;
      ] );
    ( "ooo_oracle",
      [
        Alcotest.test_case "registry kernels" `Quick oracle_kernels;
        Alcotest.test_case "shared-L2 multicore slices" `Quick oracle_multicore;
        Alcotest.test_case "generated programs" `Quick oracle_generated;
      ] );
  ]
