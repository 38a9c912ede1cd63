(* Aggregate alcotest runner for the whole repository. *)
let () =
  Alcotest.run "mesa"
    (List.concat
       [
         Test_util.suites;
         Test_pool.suites;
         Test_stats.suites;
         Test_riscv.suites;
         Test_interp.suites;
         Test_mem.suites;
         Test_cpu.suites;
         Test_dfg.suites;
         Test_ldfg.suites;
         Test_accel.suites;
         Test_mapper.suites;
         Test_engine.suites;
         Test_detector.suites;
         Test_controller.suites;
         Test_baselines.suites;
         Test_power.suites;
         Test_workloads.suites;
         Test_harness.suites;
         Test_extensions.suites;
         Test_robustness.suites;
         Test_engine_timing.suites;
         Test_engine_event.suites;
         Test_cse.suites;
         Test_fault.suites;
         Test_dse.suites;
         Test_timing.suites;
         Test_cost_model.suites;
         Test_refine.suites;
         Test_profile.suites;
         Test_gen.suites;
         Test_service.suites;
         Test_telemetry.suites;
       ])
