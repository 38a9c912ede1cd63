let check = Alcotest.check

(* Run a kernel's hot loop on the accelerator engine and on the reference
   interpreter from identical initial state; compare every architectural
   effect. The kernel programs start at the loop entry, so both substrates
   execute exactly the loop followed by the epilogue (interpreter only). *)
let engine_setup ?(grid = Grid.m128) ?(optimize = false) ?(pipelined = true) (k : Kernel.t) =
  let dfg = Runner.dfg_of_kernel k in
  let model = Perf_model.create dfg in
  let placement =
    Result.get_ok (Mapper.map ~grid ~kind:Interconnect.Mesh_noc model)
  in
  let config =
    if optimize then Runner.optimized_config ~grid k dfg placement
    else Accel_config.with_opts ~pipelined placement
  in
  (dfg, config)

(* Nested kernels (the DSL-built ones) enter their hot loop mid-program, so
   the engine cannot start from the program entry with induction state
   unset; equivalence for those goes through the full controller, which
   offloads the inner loop at its natural entry points. *)
let run_equivalence_nested ?(grid = Grid.m128) (k : Kernel.t) =
  let mem_ref = Main_memory.create () in
  let m_ref = Kernel.prepare k mem_ref in
  let halt, _ = Interp.run k.Kernel.program m_ref in
  check Alcotest.bool "reference halts" true (halt = Interp.Ecall_halt);
  let mem_acc = Main_memory.create () in
  let m_acc = Kernel.prepare k mem_acc in
  let options = Controller.default_options ~grid () in
  let report = Controller.run ~options k.Kernel.program m_acc in
  check Alcotest.bool "controller halts" true
    (report.Controller.halt = Interp.Ecall_halt);
  check Alcotest.bool (k.Kernel.name ^ ": memory equal") true
    (Main_memory.equal mem_ref mem_acc);
  check Alcotest.bool (k.Kernel.name ^ ": kernel check") true
    (k.Kernel.check mem_acc = Ok ())

let run_equivalence ?grid ?optimize (k : Kernel.t) =
  let dfg, config = engine_setup ?grid ?optimize k in
  if dfg.Dfg.entry_addr <> Program.entry k.Kernel.program then
    run_equivalence_nested ?grid k
  else begin
    (* Reference run. *)
    let mem_ref = Main_memory.create () in
    let m_ref = Kernel.prepare k mem_ref in
    let halt, _ = Interp.run k.Kernel.program m_ref in
    check Alcotest.bool "reference halts" true (halt = Interp.Ecall_halt);
    (* Engine run of the loop, then interpreter for the epilogue. *)
    let mem_acc = Main_memory.create () in
    let m_acc = Kernel.prepare k mem_acc in
    let hier = Hierarchy.create Hierarchy.default_config in
    (match Engine.execute ~config ~dfg ~machine:m_acc ~hier () with
    | Error e -> Alcotest.failf "%s: engine failed: %s" k.Kernel.name e
    | Ok res ->
      check Alcotest.bool "completed" true res.Engine.completed;
      check Alcotest.int "iteration count" k.Kernel.n res.Engine.iterations;
      check Alcotest.int "exit pc" dfg.Dfg.exit_addr m_acc.Machine.pc);
    let halt2, _ = Interp.run k.Kernel.program m_acc in
    check Alcotest.bool "epilogue halts" true (halt2 = Interp.Ecall_halt);
    check Alcotest.bool (k.Kernel.name ^ ": memory equal") true
      (Main_memory.equal mem_ref mem_acc);
    check Alcotest.bool (k.Kernel.name ^ ": kernel check") true
      (k.Kernel.check mem_acc = Ok ())
  end

let equivalence_plain () =
  List.iter (fun k -> run_equivalence k) (Workloads.all ())

let equivalence_optimized () =
  List.iter (fun k -> run_equivalence ~optimize:true k) (Workloads.all ())

let equivalence_m64 () =
  List.iter
    (fun name -> run_equivalence ~grid:Grid.m64 ~optimize:true (Workloads.find name))
    [ "nn"; "kmeans"; "pathfinder"; "bfs" ]

let tiling_preserves_results () =
  let k = Workloads.nn ~n:500 () in
  let dfg, config = engine_setup ~optimize:false k in
  let config = { config with Accel_config.tiling = 7 } in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  (match Engine.execute ~config ~dfg ~machine:m ~hier () with
  | Error e -> Alcotest.fail e
  | Ok res -> check Alcotest.int "all iterations" 500 res.Engine.iterations);
  check Alcotest.bool "outputs correct" true (k.Kernel.check mem = Ok ())

let pipelining_only_affects_timing () =
  let k = Workloads.find "gaussian" in
  let run pipelined =
    let dfg, config = engine_setup ~pipelined k in
    let mem = Main_memory.create () in
    let m = Kernel.prepare k mem in
    let hier = Hierarchy.create Hierarchy.default_config in
    match Engine.execute ~config ~dfg ~machine:m ~hier () with
    | Error e -> Alcotest.fail e
    | Ok res -> (res.Engine.cycles, mem)
  in
  let cyc_pipe, mem_pipe = run true in
  let cyc_seq, mem_seq = run false in
  check Alcotest.bool "same memory" true (Main_memory.equal mem_pipe mem_seq);
  check Alcotest.bool "pipelining faster" true (cyc_pipe < cyc_seq)

let stop_and_resume () =
  let k = Workloads.nn ~n:300 () in
  let dfg, config = engine_setup k in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  (* First window. *)
  (match Engine.execute ~stop_after:100 ~config ~dfg ~machine:m ~hier () with
  | Error e -> Alcotest.fail e
  | Ok res ->
    check Alcotest.bool "paused" false res.Engine.completed;
    check Alcotest.int "window iterations" 100 res.Engine.iterations;
    check Alcotest.int "pc back at entry" dfg.Dfg.entry_addr m.Machine.pc);
  (* Resume to completion. *)
  (match Engine.execute ~config ~dfg ~machine:m ~hier () with
  | Error e -> Alcotest.fail e
  | Ok res ->
    check Alcotest.bool "completed" true res.Engine.completed;
    check Alcotest.int "remaining iterations" 200 res.Engine.iterations);
  check Alcotest.bool "results equal a straight run" true (k.Kernel.check mem = Ok ())

let pause_can_hand_back_to_cpu () =
  (* After a pause the architectural state must be a valid CPU resume
     point: finishing on the interpreter gives the right answer. *)
  let k = Workloads.find "pathfinder" in
  let dfg, config = engine_setup k in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  (match Engine.execute ~stop_after:37 ~config ~dfg ~machine:m ~hier () with
  | Error e -> Alcotest.fail e
  | Ok res -> check Alcotest.bool "paused mid-loop" false res.Engine.completed);
  let halt, _ = Interp.run k.Kernel.program m in
  check Alcotest.bool "cpu finishes" true (halt = Interp.Ecall_halt);
  check Alcotest.bool "combined result correct" true (k.Kernel.check mem = Ok ())

let measurements_populated () =
  let k = Workloads.find "cfd" in
  let dfg, config = engine_setup k in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  match Engine.execute ~config ~dfg ~machine:m ~hier () with
  | Error e -> Alcotest.fail e
  | Ok res ->
    let m = res.Engine.measured in
    let hist_mean name =
      match Stats.find_hist m name with
      | Some h when h.Stats.hcount > 0 -> Stats.hist_mean h
      | Some _ | None -> 0.0
    in
    for i = 0 to Dfg.node_count dfg - 1 do
      check Alcotest.bool (Printf.sprintf "node %d measured" i) true
        (hist_mean (Printf.sprintf "node.%d.latency" i) > 0.0);
      if Isa.is_memory dfg.Dfg.nodes.(i).Dfg.instr then
        check Alcotest.bool (Printf.sprintf "node %d amat" i) true
          (hist_mean (Printf.sprintf "node.%d.amat" i) > 0.0)
    done;
    check Alcotest.bool "edges measured" true (List.length (Stats.hists_under m "edge") > 0);
    check Alcotest.bool "fp ops counted" true
      (res.Engine.activity.Activity.fp_ops = 11 * res.Engine.iterations)

let rejects_invalid_placement () =
  let k = Workloads.find "nn" in
  let dfg, config = engine_setup k in
  let assign = Array.copy config.Accel_config.placement.Placement.assign in
  assign.(1) <- assign.(0);
  let bad =
    { config with
      Accel_config.placement =
        Placement.make config.Accel_config.placement.Placement.grid
          config.Accel_config.placement.Placement.kind assign }
  in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  check Alcotest.bool "rejected" true
    (Result.is_error (Engine.execute ~config:bad ~dfg ~machine:m ~hier ()))

let max_iterations_pauses () =
  let k = Workloads.nn ~n:1000 () in
  let dfg, config = engine_setup k in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  match Engine.execute ~max_iterations:50 ~config ~dfg ~machine:m ~hier () with
  | Error e -> Alcotest.fail e
  | Ok res ->
    check Alcotest.bool "paused, not failed" false res.Engine.completed;
    check Alcotest.int "stopped at the cap" 50 res.Engine.iterations

(* The crown-jewel property: for random accepted loops, running under the
   full MESA controller yields the same memory image as the plain
   interpreter. *)
let random_loop_equivalence =
  QCheck2.Test.make ~name:"controller equals interpreter on random loops" ~count:60
    ~print:Gen.loop_spec_print Gen.loop_spec (fun spec ->
      let prog, m_ref = Gen.build_loop spec in
      let m_mesa =
        Machine.copy m_ref ~mem:(Main_memory.copy m_ref.Machine.mem) ()
      in
      let halt_ref, _ = Interp.run prog m_ref in
      let options =
        Controller.default_options ~grid:Grid.m128 ~optimize:true ~iterative:true ()
      in
      let report = Controller.run ~options prog m_mesa in
      halt_ref = Interp.Ecall_halt
      && report.Controller.halt = Interp.Ecall_halt
      && Main_memory.equal m_ref.Machine.mem m_mesa.Machine.mem)

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "equivalence (plain) on all kernels" `Quick equivalence_plain;
        Alcotest.test_case "equivalence (optimized) on all kernels" `Quick equivalence_optimized;
        Alcotest.test_case "equivalence on M-64" `Quick equivalence_m64;
        Alcotest.test_case "tiling preserves results" `Quick tiling_preserves_results;
        Alcotest.test_case "pipelining only affects timing" `Quick pipelining_only_affects_timing;
        Alcotest.test_case "stop and resume" `Quick stop_and_resume;
        Alcotest.test_case "pause hands back to CPU" `Quick pause_can_hand_back_to_cpu;
        Alcotest.test_case "measurements populated" `Quick measurements_populated;
        Alcotest.test_case "rejects invalid placement" `Quick rejects_invalid_placement;
        Alcotest.test_case "max_iterations pauses" `Quick max_iterations_pauses;
        QCheck_alcotest.to_alcotest random_loop_equivalence;
      ] );
  ]
