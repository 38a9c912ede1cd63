(* Failure injection and edge-of-envelope behaviour: whatever goes wrong —
   loops too short to amortize, fabrics too small to route, capture misses,
   step budgets — MESA must degrade to plain CPU execution with bit-exact
   results, never corrupt state. *)

let check = Alcotest.check

let sum_loop ~iterations =
  let b = Asm.create () in
  let open Reg in
  Asm.li b s2 0;
  Asm.label b "outer";
  Asm.li b t0 0;
  Asm.label b "loop";
  Asm.lw b t1 0 a0;
  Asm.mul b t2 t1 t1;
  Asm.add b t3 t3 t2;
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a1 "loop";
  Asm.addi b s2 s2 1;
  Asm.blt b s2 a2 "outer";
  Asm.sw b t3 0 a3;
  Asm.ecall b;
  let prog = Asm.assemble b in
  let mem = Main_memory.create () in
  Main_memory.store_word mem 0x10000 7;
  let machine = Machine.create ~pc:(Program.entry prog) mem in
  Machine.set_args machine
    [ (a0, 0x10000); (a1, iterations); (a2, 8); (a3, 0x20000) ];
  (prog, machine, mem)

let reference_of prog machine =
  let m = Machine.copy machine ~mem:(Main_memory.copy machine.Machine.mem) () in
  let _ = Interp.run prog m in
  m.Machine.mem

(* The loop exits before the configuration is ready: MESA must not offload
   a stale region mid-flight, and results stay exact. *)
let short_loop_never_breaks () =
  let prog, machine, mem = sum_loop ~iterations:12 in
  let expected = reference_of prog machine in
  let report = Controller.run prog machine in
  check Alcotest.bool "halts" true (report.Controller.halt = Interp.Ecall_halt);
  check Alcotest.bool "memory exact" true (Main_memory.equal expected mem)

(* With more inner iterations the pending configuration becomes ready on a
   later outer re-entry; offloads must eventually happen and stay exact. *)
let pending_config_fires_on_reentry () =
  let prog, machine, mem = sum_loop ~iterations:400 in
  let expected = reference_of prog machine in
  let report = Controller.run prog machine in
  check Alcotest.bool "offloaded eventually" true (report.Controller.offloads >= 1);
  check Alcotest.bool "reused across re-entries" true (report.Controller.offloads >= 4);
  check Alcotest.bool "memory exact" true (Main_memory.equal expected mem)

(* A fabric too small to route the loop: C1 admits it, the mapper fails,
   the region is never offered again, and the program completes on the CPU. *)
let unroutable_region_falls_back () =
  let k = Workloads.find "kmeans" in
  (* 32 PEs but only 16 with FP — kmeans needs 26 FP operations. *)
  let grid = Grid.make ~rows:8 ~cols:4 () in
  let options = Controller.default_options ~grid () in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let report = Controller.run ~options k.Kernel.program machine in
  check Alcotest.int "no offload" 0 report.Controller.offloads;
  let rejected =
    List.filter (fun (r : Controller.region_report) -> not r.Controller.accepted)
      report.Controller.regions
  in
  check Alcotest.bool "mapping rejection recorded" true
    (List.exists
       (fun (r : Controller.region_report) ->
         match r.Controller.reject_reason with
         | Some reason ->
           String.length reason > 0
           && (String.length reason < 2 || String.sub reason 0 2 <> "C1")
         | None -> false)
       rejected);
  check Alcotest.bool "outputs still correct" true (k.Kernel.check mem = Ok ())

(* Step-limit exhaustion surfaces as a clean halt, not a hang. *)
let controller_step_limit () =
  let prog, machine, _ = sum_loop ~iterations:100000 in
  let options = { (Controller.default_options ()) with Controller.max_steps = 500 } in
  let report = Controller.run ~options prog machine in
  check Alcotest.bool "step limit halt" true (report.Controller.halt = Interp.Step_limit)

(* Trace-cache capture with a flaky fetch path: stays incomplete, reports
   the right missing addresses, then completes when fetch recovers. *)
let trace_cache_flaky_fetch () =
  let tc = Trace_cache.create ~capacity:8 in
  Trace_cache.set_region tc ~entry:0x1000 ~last:0x101C;
  (* Only even-indexed words fetch successfully. *)
  Trace_cache.fill_from tc (fun addr ->
      if (addr - 0x1000) / 4 mod 2 = 0 then Some (Int32.of_int addr) else None);
  check Alcotest.bool "still incomplete" false (Trace_cache.complete tc);
  let refetched = ref 0 in
  Trace_cache.fill_from tc (fun addr ->
      incr refetched;
      Some (Int32.of_int addr));
  check Alcotest.int "four missing" 4 !refetched;
  check Alcotest.bool "recovers" true (Trace_cache.complete tc)

(* Multicore degenerate shapes. *)
let multicore_more_cores_than_work () =
  let k = Workloads.nn ~n:8 () in
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let r = Multicore.run ~cores:16 k mem in
  check Alcotest.bool "at most 8 busy threads" true (r.Multicore.threads <= 8);
  check Alcotest.bool "correct" true (k.Kernel.check mem = Ok ())

let multicore_one_core () =
  let k = Workloads.find "gaussian" in
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let r = Multicore.run ~cores:1 k mem in
  check Alcotest.int "single thread" 1 r.Multicore.threads;
  check Alcotest.bool "correct" true (k.Kernel.check mem = Ok ())

(* A one-iteration loop: the backward branch never repeats, so MESA never
   even forms a candidate — and nothing breaks. *)
let single_trip_loop () =
  let prog, machine, mem = sum_loop ~iterations:1 in
  let expected = reference_of prog machine in
  let report = Controller.run prog machine in
  check Alcotest.int "no offloads" 0 report.Controller.offloads;
  check Alcotest.bool "memory exact" true (Main_memory.equal expected mem)

(* Engine runaway guard composes with the controller: an enormous trip
   count still completes (in max_iterations windows) with exact results. *)
let very_long_loop_windows () =
  let k = Workloads.nn ~n:600 () in
  let dfg = Runner.dfg_of_kernel k in
  let model = Perf_model.create dfg in
  let placement =
    Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model)
  in
  let config = Accel_config.plain placement in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  let windows = ref 0 in
  let rec drive () =
    incr windows;
    match Engine.execute ~max_iterations:100 ~config ~dfg ~machine ~hier () with
    | Error e -> Alcotest.fail e
    | Ok res -> if not res.Engine.completed then drive ()
  in
  drive ();
  check Alcotest.int "six windows" 6 !windows;
  let _ = Interp.run k.Kernel.program machine in
  check Alcotest.bool "exact across windows" true (k.Kernel.check mem = Ok ())

(* The detector's candidate tracking under interleaved loops: two sibling
   inner loops inside an outer loop both get verdicts. *)
let sibling_loops_both_considered () =
  let b = Asm.create () in
  let open Reg in
  Asm.label b "outer";
  Asm.li b t0 0;
  Asm.label b "first";
  Asm.addi b t1 t1 1;
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a0 "first";
  Asm.li b t0 0;
  Asm.label b "second";
  Asm.addi b t2 t2 3;
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a0 "second";
  Asm.addi b s2 s2 1;
  Asm.blt b s2 a1 "outer";
  Asm.ecall b;
  let prog = Asm.assemble b in
  let machine = Machine.create ~pc:(Program.entry prog) (Main_memory.create ~size:65536 ()) in
  Machine.set_args machine [ (a0, 300); (a1, 4) ];
  let report = Controller.run prog machine in
  let accepted =
    List.filter (fun (r : Controller.region_report) -> r.Controller.accepted)
      report.Controller.regions
  in
  check Alcotest.int "both inner loops accepted" 2 (List.length accepted);
  check Alcotest.bool "both offloaded" true
    (List.for_all
       (fun (r : Controller.region_report) -> r.Controller.offload_count >= 1)
       accepted);
  check Alcotest.int "register outcome" (300 * 4) (Machine.get_x machine t1)

(* {2 Property: any kernel, any geometry, any interconnect — the
   accelerator's architectural side effects (memory and live-out registers)
   equal the CPU interpreter's, and the cycle accounting closes. Fault-free
   counterpart of test_fault's random-schedule property. *)

let accel_matches_interpreter =
  QCheck2.Test.make ~name:"random configs: accelerator matches the interpreter"
    ~count:12 ~print:Gen.arch_case_print (Gen.arch_case ())
    (fun (c : Gen.arch_case) ->
      let k = Gen.arch_case_kernel c in
      let mem = Main_memory.create () in
      let machine = Kernel.prepare k mem in
      let expected = Machine.copy machine ~mem:(Main_memory.copy mem) () in
      let _ = Interp.run k.Kernel.program expected in
      let grid = Grid.make ~rows:c.Gen.rows ~cols:c.Gen.cols ~mem_ports:c.Gen.ports () in
      let options =
        { (Controller.default_options ~grid ()) with Controller.kind = c.Gen.kind }
      in
      let report = Controller.run ~options k.Kernel.program machine in
      Main_memory.equal expected.Machine.mem mem
      && Machine.arch_equal expected machine
      && k.Kernel.check mem = Ok ()
      && report.Controller.total_cycles
         = report.Controller.cpu_cycles + report.Controller.accel_cycles
           + report.Controller.overhead_cycles)

let suites =
  [
    ( "robustness",
      [
        Alcotest.test_case "short loop never breaks" `Quick short_loop_never_breaks;
        Alcotest.test_case "pending config fires on re-entry" `Quick
          pending_config_fires_on_reentry;
        Alcotest.test_case "unroutable region falls back" `Quick unroutable_region_falls_back;
        Alcotest.test_case "controller step limit" `Quick controller_step_limit;
        Alcotest.test_case "trace cache flaky fetch" `Quick trace_cache_flaky_fetch;
        Alcotest.test_case "multicore more cores than work" `Quick
          multicore_more_cores_than_work;
        Alcotest.test_case "multicore one core" `Quick multicore_one_core;
        Alcotest.test_case "single-trip loop" `Quick single_trip_loop;
        Alcotest.test_case "very long loop in windows" `Quick very_long_loop_windows;
        Alcotest.test_case "sibling loops" `Quick sibling_loops_both_considered;
        QCheck_alcotest.to_alcotest accel_matches_interpreter;
      ] );
  ]
