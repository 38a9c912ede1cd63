(* The fault-injection subsystem: every scheduled fault must be survived —
   detected, retried, remapped around, or quarantined — with architectural
   state bit-exact against the plain interpreter, and the whole ladder must
   be reproducible from the (spec, seed) pair alone. *)

let check = Alcotest.check

(* Same nested summation loop the robustness suite uses: the inner region
   qualifies for offload (5 instructions, one load), the outer loop re-enters
   it 8 times so recovery and re-arming both get exercised. *)
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
  m

let stat_int report name =
  match Stats.find_int report.Controller.stats name with
  | Some v -> v
  | None -> Alcotest.failf "stat %s missing" name

let run_injected ?(options = Controller.default_options ()) ~inject iterations =
  let prog, machine, mem = sum_loop ~iterations in
  let expected = reference_of prog machine in
  let report = Controller.run ~options:{ options with Controller.inject } prog machine in
  check Alcotest.bool "halts" true (report.Controller.halt = Interp.Ecall_halt);
  check Alcotest.bool "memory exact" true
    (Main_memory.equal expected.Machine.mem mem);
  check Alcotest.bool "registers exact" true (Machine.arch_equal expected machine);
  report

(* {2 Spec parsing} *)

let spec_parses () =
  match Fault.spec_of_string ~seed:7 "transient@100,permanent@300:2x5,config@1,link@50,ports@10" with
  | Error e -> Alcotest.fail e
  | Ok sp ->
    check Alcotest.int "seed" 7 sp.Fault.seed;
    check Alcotest.int "events" 5 (List.length sp.Fault.events);
    let kinds = List.map (fun e -> Fault.kind_name e.Fault.kind) sp.Fault.events in
    check Alcotest.(list string) "kinds"
      [ "transient"; "permanent"; "config"; "link"; "ports" ] kinds;
    let pinned = List.nth sp.Fault.events 1 in
    check Alcotest.bool "pinned coord" true
      (pinned.Fault.coord = Some { Grid.row = 2; col = 5 });
    (* Round trip through the printer. *)
    (match Fault.spec_of_string ~seed:7 (Fault.spec_to_string sp) with
    | Ok sp' -> check Alcotest.bool "roundtrip" true (sp = sp')
    | Error e -> Alcotest.fail e)

let spec_rejects_garbage () =
  let bad s =
    check Alcotest.bool (s ^ " rejected") true
      (Result.is_error (Fault.spec_of_string s))
  in
  bad "meteor@3";
  bad "transient";
  bad "transient@x";
  bad "permanent@10:5";
  bad ""

(* {2 Injector determinism} *)

let injector_deterministic () =
  let spec =
    Result.get_ok
      (Fault.spec_of_string ~seed:99 "transient@3,transient@9,permanent@6,ports@2")
  in
  let grid = Grid.m128 in
  let used = [ { Grid.row = 0; col = 0 }; { Grid.row = 3; col = 2 };
               { Grid.row = 7; col = 5 } ] in
  let trace f =
    Fault.begin_window f ~used;
    List.concat_map
      (fun _ ->
        let s = Fault.tick f in
        List.map
          (fun k -> (k.Fault.s_coord, Fault.kind_name k.Fault.s_kind, k.Fault.s_value))
          s.Fault.strikes)
      (List.init 12 Fun.id)
  in
  let a = Fault.create ~grid spec and b = Fault.create ~grid spec in
  check Alcotest.bool "identical strike streams" true (trace a = trace b);
  check Alcotest.bool "identical permanent damage" true (Fault.dead a = Fault.dead b);
  check Alcotest.int "ports" (Fault.ports_lost a) (Fault.ports_lost b);
  check Alcotest.bool "events fired" true (Fault.injected a >= 3)

(* {2 Recovery ladder on the controller} *)

(* One transient upset: the window is detected as corrupt, replayed from the
   iteration-boundary checkpoint, and the run stays bit-exact. *)
let transient_is_retried () =
  let inject = Some (Fault.spec ~seed:11 [ { Fault.at = 120; kind = Fault.Transient_pe; coord = None } ]) in
  let report = run_injected ~inject 400 in
  check Alcotest.bool "offloaded" true (report.Controller.offloads >= 1);
  check Alcotest.bool "detected" true (stat_int report "faults.detected" >= 1);
  check Alcotest.bool "retried" true (stat_int report "faults.retried" >= 1);
  check Alcotest.int "no quarantine" 0 (stat_int report "faults.quarantined");
  check Alcotest.bool "recovery stalls in overhead" true
    (report.Controller.overhead_cycles > 0);
  check Alcotest.int "accounting identity" report.Controller.total_cycles
    (report.Controller.cpu_cycles + report.Controller.accel_cycles
   + report.Controller.overhead_cycles)

(* A stuck-at PE: masked out of the grid, placement re-run on the degraded
   fabric, and acceleration continues on the remaining PEs. *)
let permanent_is_remapped () =
  let inject = Some (Fault.spec ~seed:5 [ { Fault.at = 150; kind = Fault.Permanent_pe; coord = None } ]) in
  let report = run_injected ~inject 400 in
  check Alcotest.bool "remapped" true (stat_int report "faults.remapped" >= 1);
  check Alcotest.int "no quarantine" 0 (stat_int report "faults.quarantined");
  check Alcotest.bool "still accelerating after the remap" true
    (report.Controller.accel_cycles > 0 && report.Controller.offloads >= 2);
  let r =
    List.find (fun (r : Controller.region_report) -> r.Controller.accepted)
      report.Controller.regions
  in
  check Alcotest.bool "remap recorded per region" true (r.Controller.fault_remaps >= 1)

(* A barrage of transients — one per profiling window — exhausts the retry
   budget; the region is quarantined and the program completes exactly. *)
let retry_budget_quarantines () =
  let ev at = { Fault.at; kind = Fault.Transient_pe; coord = None } in
  let inject = Some (Fault.spec ~seed:3 (List.map ev [ 10; 70; 130; 200; 260; 320 ])) in
  let report = run_injected ~inject 400 in
  check Alcotest.bool "quarantined" true (stat_int report "faults.quarantined" >= 1);
  let r =
    List.find (fun (r : Controller.region_report) -> r.Controller.accepted)
      report.Controller.regions
  in
  check Alcotest.bool "quarantine reason surfaced" true
    (match r.Controller.reject_reason with Some _ -> true | None -> false)

(* An inner loop entered [outer] times: [first] iterations on the first
   entry, enough to detect and translate it, then [later] on every other,
   so a few arrivals at its entry span several entries, each made by
   falling through from the outer loop. *)
let reentered_loop ~first ~later ~outer =
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
  Asm.label b "exit";
  Asm.li b a1 later;
  Asm.addi b s2 s2 1;
  Asm.blt b s2 a2 "outer";
  Asm.sw b t3 0 a3;
  Asm.ecall b;
  let prog = Asm.assemble b in
  let mem = Main_memory.create () in
  Main_memory.store_word mem 0x10000 7;
  let machine = Machine.create ~pc:(Program.entry prog) mem in
  Machine.set_args machine [ (a0, 0x10000); (a1, first); (a2, outer); (a3, 0x20000) ];
  (prog, machine)

(* A quarantined region's backoff counts down once per arrival at its entry
   PC, by the back edge or by falling through, and at no other
   instruction: after the quarantine, the CPU reaches the entry exactly
   [backoff] times before the arrival that re-arms the region. Every
   fabric iteration carries a transient, so the first offload's windows
   fault until the region is quarantined. [max_steps] stops a run at any
   instruction boundary with the machine's PC there, so a scan over it
   reads the PC at every boundary between the quarantine and the
   re-arm. *)
let quarantine_backoff_counts_arrivals () =
  let ev at = { Fault.at; kind = Fault.Transient_pe; coord = None } in
  let inject = Some (Fault.spec ~seed:3 (List.init 400 ev)) in
  let build () = reentered_loop ~first:20 ~later:5 ~outer:300 in
  let prog, _ = build () in
  let entry = Program.symbol prog "loop" and exit_pc = Program.symbol prog "exit" in
  let named what (sp : Trace.span) = sp.Trace.name = Printf.sprintf "%s r%x" what entry in
  (* The report and the PC after [steps] CPU instructions. *)
  let run_to steps =
    let prog, machine = build () in
    let options =
      { (Controller.default_options ()) with Controller.inject; max_steps = steps }
    in
    let report = Controller.run ~options prog machine in
    (report, machine.Machine.pc)
  in
  let timeline steps = (fst (run_to steps)).Controller.timeline in
  let rearms (report : Controller.report) =
    List.length (List.filter (named "rearm") report.Controller.timeline)
  in
  let full, _ = run_to max_int in
  let total = full.Controller.cpu_summary.Ooo_model.instructions in
  let backoff =
    match List.find_opt (named "quarantine") full.Controller.timeline with
    | Some sp -> (
      match List.assoc "backoff" sp.Trace.args with Json.Int n -> n | _ -> -1)
    | None -> Alcotest.fail "the schedule must quarantine the region"
  in
  (* The boundary [b] whose offload quarantines: the first [steps] that
     sees the quarantine is [b + 1]. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if List.exists (named "quarantine") (timeline mid) then search lo mid
      else search (mid + 1) hi
  in
  let b = search 1 total - 1 in
  let before = rearms (fst (run_to (b + 1))) in
  (* Over the boundaries after [b], up to and including the one that
     re-arms: the arrivals at the entry, and whether the CPU left the loop
     body in between (so that some arrival fell through). *)
  let rec scan s arrivals left =
    let report, pc = run_to s in
    if s > total then Alcotest.fail "no re-arm after the quarantine"
    else if rearms report > before then (s - 1, arrivals, left)
    else scan (s + 1) (if pc = entry then arrivals + 1 else arrivals) (left || pc >= exit_pc)
  in
  let rearm_at, arrivals, left = scan (b + 1) 0 false in
  check Alcotest.int "arrivals at the entry until the re-arm" (backoff + 1) arrivals;
  check Alcotest.int "the re-arm happens at the entry" entry (snd (run_to rearm_at));
  check Alcotest.bool "some arrival fell through from the outer loop" true left

(* Worst case: permanent faults on a fabric with no spare capacity. The
   remap cannot route, the region is quarantined with backoff, and the
   program degrades to CPU-only completion — still bit-exact. *)
let degrades_to_cpu_only () =
  let grid = Grid.make ~rows:2 ~cols:3 ~name:"M-6" () in
  let options = Controller.default_options ~grid () in
  (* Control: the tiny fabric can run the loop when healthy. *)
  let prog, machine, mem = sum_loop ~iterations:400 in
  let expected = reference_of prog machine in
  let clean = Controller.run ~options prog machine in
  check Alcotest.bool "tiny fabric offloads when healthy" true
    (clean.Controller.offloads >= 1);
  check Alcotest.bool "clean memory exact" true
    (Main_memory.equal expected.Machine.mem mem);
  (* Now kill PEs until the mapper cannot place the loop any more. *)
  let ev at = { Fault.at; kind = Fault.Permanent_pe; coord = None } in
  let inject = Some (Fault.spec ~seed:21 (List.map ev [ 100; 300; 500 ])) in
  let report = run_injected ~options ~inject 400 in
  check Alcotest.bool "quarantined" true (stat_int report "faults.quarantined" >= 1);
  let r =
    List.find (fun (r : Controller.region_report) -> r.Controller.accepted)
      report.Controller.regions
  in
  check Alcotest.bool "abandonment reason recorded" true
    (match r.Controller.reject_reason with Some _ -> true | None -> false)

(* Configuration upsets are caught by the checksummed codec at write time;
   the write is simply paid again. *)
let config_upset_repays_write () =
  let inject = Some (Fault.spec ~seed:2 [ { Fault.at = 1; kind = Fault.Config_upset; coord = None } ]) in
  let report = run_injected ~inject 400 in
  check Alcotest.bool "upset hit" true (stat_int report "faults.config_upsets" >= 1);
  check Alcotest.int "no quarantine" 0 (stat_int report "faults.quarantined")

(* {2 Budget abort (satellite a)} *)

let iteration_budget_aborts () =
  let options =
    { (Controller.default_options ()) with
      Controller.iterative = false;
      engine_max_iterations = 100 }
  in
  let prog, machine, mem = sum_loop ~iterations:400 in
  let expected = reference_of prog machine in
  let report = Controller.run ~options prog machine in
  check Alcotest.bool "halts" true (report.Controller.halt = Interp.Ecall_halt);
  check Alcotest.bool "memory exact" true
    (Main_memory.equal expected.Machine.mem mem);
  check Alcotest.bool "budget abort counted" true
    (stat_int report "controller.iteration_budget_aborts" >= 1);
  let r =
    List.find (fun (r : Controller.region_report) -> r.Controller.accepted)
      report.Controller.regions
  in
  check Alcotest.(option string) "distinct abort reason"
    (Some "iteration budget exhausted") r.Controller.reject_reason

(* {2 Determinism and the fault-free path} *)

let same_spec_same_run () =
  let inject =
    Some
      (Result.get_ok
         (Fault.spec_of_string ~seed:17 "transient@50,permanent@200,config@1"))
  in
  let once () =
    let report = run_injected ~inject 400 in
    ( report.Controller.total_cycles,
      List.map (fun p -> stat_int report ("faults." ^ p))
        [ "injected"; "detected"; "retried"; "remapped"; "quarantined" ] )
  in
  let a = once () and b = once () in
  check Alcotest.bool "bitwise repeatable timing and counters" true (a = b)

let fault_free_group_is_zero () =
  let report = run_injected ~inject:None 400 in
  List.iter
    (fun p -> check Alcotest.int ("faults." ^ p) 0 (stat_int report ("faults." ^ p)))
    [ "injected"; "detected"; "retried"; "remapped"; "quarantined"; "config_upsets" ]

(* {2 Property: any schedule, any loop — bit-exact or bust} *)

let gen_schedule =
  let open QCheck2.Gen in
  let kind =
    oneofl [ Fault.Transient_pe; Fault.Permanent_pe; Fault.Link_down; Fault.Config_upset; Fault.Port_degrade ]
  in
  let event =
    kind >>= fun kind ->
    (match kind with
    | Fault.Config_upset -> 1 -- 3
    | _ -> 1 -- 400)
    >>= fun at -> return { Fault.at; kind; coord = None }
  in
  small_nat >>= fun seed ->
  list_size (0 -- 4) event >>= fun events ->
  return (Fault.spec ~seed events)

let gen_case =
  QCheck2.Gen.pair Gen.loop_spec gen_schedule

let print_case (spec, sched) =
  Printf.sprintf "%s\n  inject %s seed %d" (Gen.loop_spec_print spec)
    (Fault.spec_to_string sched) sched.Fault.seed

let random_faults_stay_exact =
  QCheck2.Test.make ~name:"random fault schedules stay bit-exact" ~count:40
    ~print:print_case gen_case (fun (spec, sched) ->
      let prog, machine = Gen.build_loop spec in
      let expected =
        reference_of prog machine
      in
      let mem = machine.Machine.mem in
      let options = Controller.default_options ~inject:sched () in
      let report = Controller.run ~options prog machine in
      report.Controller.halt = Interp.Ecall_halt
      && Main_memory.equal expected.Machine.mem mem
      && Machine.arch_equal expected machine
      && report.Controller.total_cycles
         = report.Controller.cpu_cycles + report.Controller.accel_cycles
           + report.Controller.overhead_cycles)

let suites =
  [
    ( "fault",
      [
      Alcotest.test_case "spec parses and round-trips" `Quick spec_parses;
      Alcotest.test_case "spec rejects garbage" `Quick spec_rejects_garbage;
      Alcotest.test_case "injector is deterministic" `Quick injector_deterministic;
      Alcotest.test_case "transient fault is retried" `Quick transient_is_retried;
      Alcotest.test_case "permanent fault is remapped" `Quick permanent_is_remapped;
      Alcotest.test_case "retry budget quarantines" `Quick retry_budget_quarantines;
      Alcotest.test_case "quarantine backoff counts entry arrivals" `Quick
        quarantine_backoff_counts_arrivals;
      Alcotest.test_case "no-spare fabric degrades to CPU" `Quick degrades_to_cpu_only;
      Alcotest.test_case "config upset repays the write" `Quick config_upset_repays_write;
      Alcotest.test_case "iteration budget aborts distinctly" `Quick iteration_budget_aborts;
      Alcotest.test_case "same spec, same run" `Quick same_spec_same_run;
      Alcotest.test_case "fault-free group is all zero" `Quick fault_free_group_is_zero;
        QCheck_alcotest.to_alcotest random_faults_stay_exact;
      ] );
  ]
