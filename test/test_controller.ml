let check = Alcotest.check

(* -------------------- optimizer -------------------- *)

let opt_setup () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "cfd") in
  let model = Perf_model.create dfg in
  let placement =
    Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model)
  in
  (dfg, model, Accel_config.plain placement)

let optimizer_absorb () =
  let k = Workloads.find "cfd" in
  let dfg, model, config = opt_setup () in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  let res = Result.get_ok (Engine.execute ~config ~dfg ~machine:m ~hier ()) in
  let before = Perf_model.op_latency model 0 in
  Optimizer.absorb model res;
  (* Node 0 is a load: its measured AMAT should now drive the model. *)
  check Alcotest.bool "measured latency absorbed" true
    (Perf_model.op_latency model 0 <> before)

let optimizer_monotone_adoption () =
  let k = Workloads.find "cfd" in
  let dfg, model, config = opt_setup () in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  let res =
    Result.get_ok (Engine.execute ~stop_after:64 ~config ~dfg ~machine:m ~hier ())
  in
  Optimizer.absorb model res;
  (match
     Optimizer.step ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc ~model
       ~current:config
   with
  | Optimizer.Adopt { latency; previous; config = config' } ->
    check Alcotest.bool "strict improvement" true
      (latency < previous *. (1.0 -. Optimizer.improvement_threshold));
    check Alcotest.bool "new placement valid" true
      (Placement.validate dfg config'.Accel_config.placement = Ok ())
  | Optimizer.Keep latency ->
    (* Keep must leave the model consistent with the current placement. *)
    check (Alcotest.float 1e-9) "estimates restored" latency
      (Perf_model.iteration_latency model))

(* -------------------- controller -------------------- *)

let controller_report (k : Kernel.t) ?(optimize = true) ?(iterative = false) ?grid () =
  let options = Controller.default_options ?grid ~optimize ~iterative () in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let report = Controller.run ~options k.Kernel.program machine in
  (report, mem)

let controller_offloads_and_is_correct () =
  List.iter
    (fun name ->
      let k = Workloads.find name in
      let report, mem = controller_report k () in
      check Alcotest.bool (name ^ " halts") true (report.Controller.halt = Interp.Ecall_halt);
      check Alcotest.bool (name ^ " offloaded") true (report.Controller.offloads >= 1);
      check Alcotest.bool (name ^ " outputs") true (k.Kernel.check mem = Ok ());
      check Alcotest.bool (name ^ " accel did the work") true
        (report.Controller.activity.Activity.iterations > k.Kernel.n / 2);
      check Alcotest.int (name ^ " total = parts")
        (report.Controller.cpu_cycles + report.Controller.accel_cycles
       + report.Controller.overhead_cycles)
        report.Controller.total_cycles)
    [ "nn"; "bfs"; "kmeans"; "streamcluster" ]

let controller_matches_interpreter_state () =
  let k = Workloads.find "pathfinder" in
  (* Reference. *)
  let mem_ref = Main_memory.create () in
  let m_ref = Kernel.prepare k mem_ref in
  let _ = Interp.run k.Kernel.program m_ref in
  (* MESA. *)
  let report, mem = controller_report k () in
  ignore report;
  check Alcotest.bool "memory identical" true (Main_memory.equal mem_ref mem)

let controller_region_reports () =
  let k = Workloads.find "hotspot" in
  let report, _ = controller_report k () in
  match List.filter (fun (r : Controller.region_report) -> r.Controller.accepted)
          report.Controller.regions with
  | [ r ] ->
    check Alcotest.int "entry" (Program.entry k.Kernel.program) r.Controller.entry;
    check Alcotest.int "size" 21 r.Controller.size;
    check Alcotest.bool "parallel tiling applied" true (r.Controller.tiling > 1);
    check Alcotest.bool "pipelined" true r.Controller.pipelined;
    check Alcotest.bool "translation in Table 2 band" true
      (r.Controller.translation_cycles >= 500 && r.Controller.translation_cycles <= 20000);
    (* Detection + translation run a few dozen iterations on the CPU
       first; the fabric gets the rest. *)
    check Alcotest.bool "nearly all iterations on fabric" true
      (r.Controller.accel_iterations > (9 * k.Kernel.n) / 10
      && r.Controller.accel_iterations < k.Kernel.n)
  | _ -> Alcotest.fail "expected exactly one accepted region"

let controller_render_summary () =
  let k = Workloads.find "hotspot" in
  let report, _ = controller_report k () in
  let lines faults = String.split_on_char '\n' (Controller.render ~faults report) in
  (match lines false with
  | breakdown :: region :: _ ->
    check Alcotest.string "breakdown line"
      (Printf.sprintf
         "MESA breakdown: cpu %d + accel %d + overhead %d cycles; %d offload(s); translation busy %d cycles"
         report.Controller.cpu_cycles report.Controller.accel_cycles
         report.Controller.overhead_cycles report.Controller.offloads
         report.Controller.mesa_busy_cycles)
      breakdown;
    check Alcotest.bool "accepted region line" true
      (String.starts_with region
         ~prefix:
           (Printf.sprintf "region 0x%x: 21 instrs, tiling x" (Program.entry k.Kernel.program)))
  | _ -> Alcotest.fail "summary too short");
  let has_summary faults =
    List.exists (String.starts_with ~prefix:"fault summary: ") (lines faults)
  in
  check Alcotest.bool "fault totals only on request" false (has_summary false);
  check Alcotest.bool "fault totals with faults" true (has_summary true)

let controller_optimize_flag () =
  let k = Workloads.find "lud" in
  let report_opt, mem1 = controller_report k ~optimize:true () in
  let report_plain, mem2 = controller_report k ~optimize:false () in
  check Alcotest.bool "both correct" true
    (k.Kernel.check mem1 = Ok () && k.Kernel.check mem2 = Ok ());
  let tiling r =
    match
      List.find_opt (fun (x : Controller.region_report) -> x.Controller.accepted)
        r.Controller.regions
    with
    | Some x -> x.Controller.tiling
    | None -> 0
  in
  check Alcotest.bool "opt tiles" true (tiling report_opt > 1);
  check Alcotest.int "plain does not tile" 1 (tiling report_plain);
  check Alcotest.bool "optimizations pay" true
    (report_opt.Controller.total_cycles < report_plain.Controller.total_cycles)

let controller_nonparallel_untiled () =
  let k = Workloads.find "bfs" in
  let report, _ = controller_report k () in
  match
    List.find_opt (fun (x : Controller.region_report) -> x.Controller.accepted)
      report.Controller.regions
  with
  | Some r -> check Alcotest.int "no speculative tiling" 1 r.Controller.tiling
  | None -> Alcotest.fail "bfs should be accepted"

let controller_config_cache_reused () =
  (* A nested program that re-enters the same inner loop several times:
     after the first translation, re-encounters hit the config cache
     (offloads > 1, one accepted region, translation charged once). *)
  let b = Asm.create () in
  let open Reg in
  Asm.li b s2 0;
  Asm.label b "outer";
  Asm.li b t0 0;
  Asm.li b t1 0;
  Asm.label b "inner";
  Asm.lw b t2 0 a0;
  Asm.mul b t3 t2 t2;
  Asm.add b t1 t1 t3;
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a1 "inner";
  Asm.sw b t1 0 a2;
  Asm.addi b a2 a2 4;
  Asm.addi b s2 s2 1;
  Asm.blt b s2 a3 "outer";
  Asm.ecall b;
  let prog = Asm.assemble b in
  let mem = Main_memory.create () in
  Main_memory.blit_words mem 0x10000 (Array.init 64 (fun i -> i + 1));
  let machine = Machine.create ~pc:(Program.entry prog) mem in
  Machine.set_args machine
    [ (a0, 0x10000); (a1, 600); (a2, 0x20000); (a3, 6) ];
  let report = Controller.run prog machine in
  check Alcotest.bool "halts" true (report.Controller.halt = Interp.Ecall_halt);
  let accepted =
    List.filter (fun (r : Controller.region_report) -> r.Controller.accepted)
      report.Controller.regions
  in
  check Alcotest.int "one cached region" 1 (List.length accepted);
  check Alcotest.bool "multiple offloads" true (report.Controller.offloads >= 3);
  (* The six outer iterations all wrote the same inner-loop sum. *)
  let first = Main_memory.load_word mem 0x20000 in
  check Alcotest.bool "sum nonzero" true (first <> 0);
  for i = 1 to 5 do
    check Alcotest.int "same sum each re-entry" first
      (Main_memory.load_word mem (0x20000 + (4 * i)))
  done

let controller_iterative_mode_correct () =
  let k = Workloads.find "kmeans" in
  let report, mem = controller_report k ~iterative:true () in
  check Alcotest.bool "correct under reoptimization" true (k.Kernel.check mem = Ok ());
  check Alcotest.bool "halts" true (report.Controller.halt = Interp.Ecall_halt)

(* The one configuration known to take the iterative optimizer's [Adopt]
   branch past the amortisation test: btree on M-128 with tiling stripped
   (the ablation's no-tiling variant) and 128-iteration profiling windows. *)
let controller_reconfigures_once () =
  let k = Workloads.find "btree" in
  let options =
    {
      (Controller.default_options ~grid:Grid.m128 ~optimize:true ~iterative:true ())
      with
      Controller.tune = (fun c -> { c with Accel_config.tiling = 1 });
      profile_chunk = 128;
    }
  in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let r = Controller.run ~options k.Kernel.program machine in
  check Alcotest.bool "outputs" true (k.Kernel.check mem = Ok ());
  check Alcotest.int "total cycles" 12_663 r.Controller.total_cycles;
  check Alcotest.int "total = parts"
    (r.Controller.cpu_cycles + r.Controller.accel_cycles + r.Controller.overhead_cycles)
    r.Controller.total_cycles;
  check (Alcotest.option Alcotest.int) "reconfigurations counter" (Some 1)
    (Stats.find_int r.Controller.stats "controller.reconfigurations");
  check Alcotest.int "region reconfigurations" 1
    (List.fold_left (fun acc rr -> acc + rr.Controller.reconfigurations) 0
       r.Controller.regions);
  let is_reconfigure (sp : Trace.span) =
    String.starts_with ~prefix:"reconfigure r" sp.Trace.name
  in
  check Alcotest.int "one reconfigure span" 1
    (List.length (List.filter is_reconfigure r.Controller.timeline))

let controller_speedup_helper () =
  let r, _ = controller_report (Workloads.find "gaussian") () in
  check (Alcotest.float 1e-9) "speedup arithmetic" 2.0
    (Controller.speedup ~baseline_cycles:(2 * r.Controller.total_cycles) r)

(* C1 through the controller: the capacity is the fabric's PEs plus
   load-store entries, 4 + 4 = 8 instructions on a 2x2 grid, fewer than
   kmeans' hot loop. The region is rejected before translation, nothing is
   offloaded, and the CPU finishes the kernel with correct outputs. *)
let controller_c1_rejects_oversized_region () =
  let k = Workloads.find "kmeans" in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let options = Controller.default_options ~grid:(Grid.make ~rows:2 ~cols:2 ()) () in
  let report = Controller.run ~options k.Kernel.program machine in
  let reasons =
    List.map
      (fun r -> Option.value r.Controller.reject_reason ~default:"accepted")
      report.Controller.regions
  in
  check Alcotest.bool
    ("C1 rejects every region: " ^ String.concat "; " reasons)
    true
    (reasons <> [] && List.for_all (String.starts_with ~prefix:"C1") reasons);
  check Alcotest.int "no offloads" 0 report.Controller.offloads;
  check Alcotest.(result unit string) "outputs" (Ok ()) (k.Kernel.check mem)

(* {2 The CPU phase allocates nothing}

   Minor words per retired instruction while the controller keeps a loop on
   the CPU (a jump in its body fails C2): the difference of two runs of
   different trip counts, so the run's set-up cancels. Counted in this
   domain ([Gc.minor_words]), which a retiring pool domain of an earlier
   test cannot disturb and which, unlike [Gc.counters]' minor count, does
   not lag until the next minor collection. *)
let controller_cpu_phase_allocation () =
  let b = Asm.create () in
  let open Reg in
  Asm.li b t0 0;
  Asm.label b "loop";
  Asm.lw b t1 0 a1;
  Asm.addi b t1 t1 1;
  Asm.sw b t1 0 a1;
  Asm.jal b ra "next";
  Asm.label b "next";
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a0 "loop";
  Asm.ecall b;
  let prog = Asm.assemble b in
  let run trips =
    let machine = Machine.create ~pc:(Program.entry prog) (Main_memory.create ()) in
    Machine.set_args machine [ (a0, trips); (a1, 0x10000) ];
    let before = Gc.minor_words () in
    let report = Controller.run prog machine in
    let words = Gc.minor_words () -. before in
    check Alcotest.int "stays on the CPU" 0 report.Controller.offloads;
    (words, report.Controller.cpu_summary.Ooo_model.instructions)
  in
  ignore (run 100);
  let w1, i1 = run 2000 and w2, i2 = run 4000 in
  let per_instr = (w2 -. w1) /. float_of_int (i2 - i1) in
  if per_instr >= 0.1 then
    Alcotest.failf "%.3f minor words per retired instruction" per_instr

let suites =
  [
    ( "optimizer",
      [
        Alcotest.test_case "absorb measurements" `Quick optimizer_absorb;
        Alcotest.test_case "monotone adoption" `Quick optimizer_monotone_adoption;
      ] );
    ( "controller",
      [
        Alcotest.test_case "offloads and stays correct" `Quick controller_offloads_and_is_correct;
        Alcotest.test_case "matches interpreter state" `Quick controller_matches_interpreter_state;
        Alcotest.test_case "region reports" `Quick controller_region_reports;
        Alcotest.test_case "render summary" `Quick controller_render_summary;
        Alcotest.test_case "optimize flag" `Quick controller_optimize_flag;
        Alcotest.test_case "non-parallel loops untiled" `Quick controller_nonparallel_untiled;
        Alcotest.test_case "config cache reuse" `Quick controller_config_cache_reused;
        Alcotest.test_case "iterative mode correct" `Quick controller_iterative_mode_correct;
        Alcotest.test_case "adopts one reconfiguration" `Quick
          controller_reconfigures_once;
        Alcotest.test_case "speedup helper" `Quick controller_speedup_helper;
        Alcotest.test_case "C1 rejects an oversized region" `Quick
          controller_c1_rejects_oversized_region;
        Alcotest.test_case "CPU phase allocates nothing" `Quick
          controller_cpu_phase_allocation;
      ] );
  ]
