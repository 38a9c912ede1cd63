let check = Alcotest.check

(* -------------------- trace cache -------------------- *)

let trace_cache_capture () =
  let tc = Trace_cache.create ~capacity:16 in
  Trace_cache.set_region tc ~entry:0x1000 ~last:0x100C;
  check Alcotest.bool "incomplete at start" false (Trace_cache.complete tc);
  let asked = ref [] in
  Trace_cache.fill_from tc (fun addr ->
      asked := addr :: !asked;
      if addr < 0x1008 then Some (Int32.of_int ((addr - 0x1000) / 4 + 1)) else None);
  check (Alcotest.list Alcotest.int) "reads the window in order"
    [ 0x1000; 0x1004; 0x1008; 0x100C ] (List.rev !asked);
  check Alcotest.bool "incomplete after a partial fetch" false (Trace_cache.complete tc);
  asked := [];
  Trace_cache.fill_from tc (fun addr ->
      asked := addr :: !asked;
      Some (Int32.of_int (addr land 0xFF)));
  check (Alcotest.list Alcotest.int) "refetches only the missing words"
    [ 0x1008; 0x100C ] (List.rev !asked);
  check Alcotest.bool "complete" true (Trace_cache.complete tc);
  check (Alcotest.array Alcotest.int32) "contents in order" [| 1l; 2l; 8l; 0xCl |]
    (Trace_cache.words tc)

let trace_cache_idempotent () =
  let tc = Trace_cache.create ~capacity:4 in
  Trace_cache.set_region tc ~entry:0 ~last:0;
  Trace_cache.fill_from tc (fun _ -> Some 5l);
  Trace_cache.fill_from tc (fun _ -> Some 6l); (* nothing missing: ignored *)
  check (Alcotest.array Alcotest.int32) "first write sticks" [| 5l |] (Trace_cache.words tc)

let trace_cache_capacity () =
  let tc = Trace_cache.create ~capacity:4 in
  Alcotest.check_raises "window too large"
    (Invalid_argument "Trace_cache.set_region: window exceeds capacity") (fun () ->
      Trace_cache.set_region tc ~entry:0 ~last:16)

(* -------------------- loop detector -------------------- *)

(* Step [prog] on a timed core and present every taken backward branch to
   the detector, as [Controller.run] does. *)
let feed_program prog machine detector max_steps =
  let core =
    Cpu_run.create Ooo_model.default_config
      (Hierarchy.create Hierarchy.default_config) prog machine
  in
  let verdicts = ref [] in
  let rec go n =
    if n = 0 then ()
    else
      let pc = machine.Machine.pc in
      match Cpu_run.step core with
      | Cpu_run.Halted -> ()
      | Cpu_run.Retired -> go (n - 1)
      | Cpu_run.Backward_taken ->
        (match Loop_detector.feed detector ~pc ~off:(machine.Machine.pc - pc) with
        | Some v -> verdicts := v :: !verdicts
        | None -> ());
        go (n - 1)
  in
  go max_steps;
  List.rev !verdicts

let accepts_hot_loop () =
  let k = Workloads.find "gaussian" in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let detector = Loop_detector.create ~capacity:512 k.Kernel.program in
  match feed_program k.Kernel.program m detector 2000 with
  | [ Loop_detector.Accepted region ] ->
    check Alcotest.int "entry at loop" (Program.entry k.Kernel.program) region.Region.entry;
    check Alcotest.int "nine instructions" 9 (Region.size region);
    check Alcotest.bool "pragma seen" true (region.Region.pragma = Some Program.Omp_parallel);
    check Alcotest.bool "observed enough" true (region.Region.observed_iterations >= 8)
  | [] -> Alcotest.fail "no verdict"
  | _ -> Alcotest.fail "unexpected verdicts"

let verdict_is_single () =
  let k = Workloads.find "gaussian" in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let detector = Loop_detector.create ~capacity:512 k.Kernel.program in
  let verdicts = feed_program k.Kernel.program m detector 100000 in
  check Alcotest.int "exactly one verdict" 1 (List.length verdicts)

let rejects_loop_with_jump () =
  let b = Asm.create () in
  let open Reg in
  Asm.label b "loop";
  Asm.jal b ra "sub";
  Asm.label b "sub";
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a0 "loop";
  Asm.ecall b;
  let prog = Asm.assemble b in
  let m = Machine.create ~pc:(Program.entry prog) (Main_memory.create ~size:4096 ()) in
  Machine.set_x m a0 100;
  let detector = Loop_detector.create ~capacity:512 prog in
  match feed_program prog m detector 5000 with
  | [ Loop_detector.Rejected { reason; _ } ] ->
    check Alcotest.bool "C2 reason" true
      (String.length reason >= 2 && String.sub reason 0 2 = "C2")
  | _ -> Alcotest.fail "expected a C2 rejection"

let rejects_inner_loop () =
  (* Outer loop containing an inner loop: the inner is accepted (it is a
     plain loop); the outer must be rejected for nesting. *)
  let b = Asm.create () in
  let open Reg in
  Asm.label b "outer";
  Asm.li b t1 0;
  Asm.label b "inner";
  Asm.addi b t1 t1 1;
  Asm.addi b t2 t2 1;
  Asm.addi b t3 t3 1;
  Asm.blt b t1 a1 "inner";
  Asm.addi b t0 t0 1;
  Asm.blt b t0 a0 "outer";
  Asm.ecall b;
  let prog = Asm.assemble b in
  let m = Machine.create ~pc:(Program.entry prog) (Main_memory.create ~size:4096 ()) in
  Machine.set_x m a0 50;
  Machine.set_x m a1 20;
  let detector = Loop_detector.create ~capacity:512 prog in
  let verdicts = feed_program prog m detector 50000 in
  let accepted_entries =
    List.filter_map
      (function Loop_detector.Accepted r -> Some r.Region.entry | _ -> None)
      verdicts
  in
  let rejected =
    List.filter_map
      (function Loop_detector.Rejected { entry; reason } -> Some (entry, reason) | _ -> None)
      verdicts
  in
  check (Alcotest.list Alcotest.int) "inner accepted" [ Program.symbol prog "inner" ]
    accepted_entries;
  check Alcotest.bool "outer rejected for nesting" true
    (List.exists
       (fun (e, reason) ->
         e = Program.symbol prog "outer"
         && String.length reason >= 2
         && String.sub reason 0 2 = "C2")
       rejected)

let rejects_memory_only_loop () =
  (* A copy loop that is almost all memory traffic fails C3. *)
  let b = Asm.create () in
  let open Reg in
  Asm.label b "loop";
  Asm.lw b t1 0 a0;
  Asm.lw b t2 4 a0;
  Asm.lw b t3 8 a0;
  Asm.lw b t4 12 a0;
  Asm.sw b t1 0 a1;
  Asm.sw b t2 4 a1;
  Asm.sw b t3 8 a1;
  Asm.sw b t4 12 a1;
  Asm.addi b a0 a0 16;
  Asm.addi b a1 a1 16;
  Asm.bltu b a0 a2 "loop";
  Asm.ecall b;
  let prog = Asm.assemble b in
  let mem = Main_memory.create () in
  let m = Machine.create ~pc:(Program.entry prog) mem in
  Machine.set_args m [ (a0, 0x1000_0); (a1, 0x2000_0); (a2, 0x1000_0 + 4096) ];
  let detector = Loop_detector.create ~capacity:512 prog in
  match feed_program prog m detector 50000 with
  | [ Loop_detector.Rejected { reason; _ } ] ->
    check Alcotest.bool "C3 reason" true
      (String.length reason >= 2 && String.sub reason 0 2 = "C3")
  | _ -> Alcotest.fail "expected a C3 rejection"

let rejects_oversized_loop () =
  let k = Workloads.find "kmeans" in
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let detector = Loop_detector.create ~capacity:8 k.Kernel.program in
  match feed_program k.Kernel.program m detector 5000 with
  | [ Loop_detector.Rejected { reason; _ } ] ->
    check Alcotest.bool "C1 reason" true
      (String.length reason >= 2 && String.sub reason 0 2 = "C1")
  | _ -> Alcotest.fail "expected a C1 rejection"

let suites =
  [
    ( "trace_cache",
      [
        Alcotest.test_case "capture" `Quick trace_cache_capture;
        Alcotest.test_case "idempotent" `Quick trace_cache_idempotent;
        Alcotest.test_case "capacity" `Quick trace_cache_capacity;
      ] );
    ( "loop_detector",
      [
        Alcotest.test_case "accepts hot loop" `Quick accepts_hot_loop;
        Alcotest.test_case "one verdict per entry" `Quick verdict_is_single;
        Alcotest.test_case "rejects jumps (C2)" `Quick rejects_loop_with_jump;
        Alcotest.test_case "rejects nesting (C2)" `Quick rejects_inner_loop;
        Alcotest.test_case "rejects memory-only (C3)" `Quick rejects_memory_only_loop;
        Alcotest.test_case "rejects oversized (C1)" `Quick rejects_oversized_loop;
      ] );
  ]
