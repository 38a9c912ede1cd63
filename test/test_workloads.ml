let check = Alcotest.check

let registry_complete () =
  let names = List.map (fun k -> k.Kernel.name) (Workloads.all ()) in
  check Alcotest.int "twenty-three kernels" 23 (List.length names);
  check Alcotest.bool "sorted unique" true (names = List.sort_uniq compare names);
  List.iter
    (fun n -> check Alcotest.string "find by name" n (Workloads.find n).Kernel.name)
    names;
  (match Workloads.find "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown name should raise");
  check Alcotest.int "opencgra subset" 8 (List.length (Workloads.opencgra_compatible ()));
  check Alcotest.int "dynaspam subset" 8 (List.length (Workloads.dynaspam_shared ()))

let every_kernel_runs_and_checks () =
  List.iter
    (fun (k : Kernel.t) ->
      let mem = Main_memory.create () in
      let m = Kernel.prepare k mem in
      let halt, retired = Interp.run k.Kernel.program m in
      check Alcotest.bool (k.Kernel.name ^ " halts") true (halt = Interp.Ecall_halt);
      check Alcotest.bool (k.Kernel.name ^ " does real work") true (retired > k.Kernel.n);
      match k.Kernel.check mem with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" k.Kernel.name e)
    (Workloads.all ())

let checks_catch_corruption () =
  (* A check must actually look at the outputs: corrupt one word after a
     valid run and expect a failure. *)
  List.iter
    (fun name ->
      let k = Workloads.find name in
      let mem = Main_memory.create () in
      let m = Kernel.prepare k mem in
      let _ = Interp.run k.Kernel.program m in
      (* All kernels write a word/float stream starting at 0x200000 or, for
         in-place kernels, at their first array; flip a bit in both areas. *)
      let flip addr = Main_memory.store_word mem addr (Main_memory.load_word mem addr lxor 1) in
      flip 0x200000;
      flip 0x100000;
      check Alcotest.bool (name ^ " detects corruption") true
        (Result.is_error (k.Kernel.check mem)))
    [ "nn"; "btree"; "lud"; "bfs" ]

let kernels_fit_trace_cache () =
  List.iter
    (fun (k : Kernel.t) ->
      let dfg = Runner.dfg_of_kernel k in
      check Alcotest.bool (k.Kernel.name ^ " under C1 capacity") true
        (Dfg.node_count dfg <= 512))
    (Workloads.all ())

let parallel_flags_match_pragmas () =
  List.iter
    (fun (k : Kernel.t) ->
      let dfg = Runner.dfg_of_kernel k in
      let has_pragma = Program.pragma_at k.Kernel.program dfg.Dfg.entry_addr <> None in
      check Alcotest.bool (k.Kernel.name ^ " pragma consistent") k.Kernel.parallel has_pragma)
    (Workloads.all ())

let slicing_is_equivalent () =
  (* Running a parallel kernel as 4 slices over the same memory must produce
     the same result as one full-range run. *)
  List.iter
    (fun name ->
      let k = Workloads.find name in
      let mem = Main_memory.create () in
      k.Kernel.setup mem;
      let n = k.Kernel.n in
      List.iter
        (fun tid ->
          let lo = n * tid / 4 and hi = n * (tid + 1) / 4 in
          let m = Kernel.prepare_slice k mem ~lo ~hi in
          let halt, _ = Interp.run k.Kernel.program m in
          check Alcotest.bool "slice halts" true (halt = Interp.Ecall_halt))
        [ 0; 1; 2; 3 ];
      check Alcotest.bool (name ^ " sliced result correct") true (k.Kernel.check mem = Ok ()))
    [ "nn"; "hotspot"; "btree"; "streamcluster" ]

let nn_custom_size () =
  let k = Workloads.nn ~n:128 () in
  check Alcotest.int "size honored" 128 k.Kernel.n;
  let mem = Main_memory.create () in
  let m = Kernel.prepare k mem in
  let _ = Interp.run k.Kernel.program m in
  check Alcotest.bool "small run correct" true (k.Kernel.check mem = Ok ())

let kernel_feature_coverage () =
  (* The suite must exercise the mechanisms the paper describes. *)
  let any p = List.exists p (Workloads.all ()) in
  let dfg_of = Runner.dfg_of_kernel in
  check Alcotest.bool "a kernel with predication" true
    (any (fun k ->
         Array.exists (fun nd -> nd.Dfg.guards <> []) (dfg_of k).Dfg.nodes));
  check Alcotest.bool "a kernel with vectorizable loads" true
    (any (fun k -> (Mem_opt.analyze (dfg_of k)).Mem_opt.vector_groups <> []));
  check Alcotest.bool "a kernel with prefetchable loads" true
    (any (fun k -> (Mem_opt.analyze (dfg_of k)).Mem_opt.prefetched <> []));
  check Alcotest.bool "an FP-divide kernel" true
    (any (fun k ->
         Array.exists
           (fun nd -> Isa.op_class nd.Dfg.instr = Isa.C_fdiv)
           (dfg_of k).Dfg.nodes));
  check Alcotest.bool "a non-parallel kernel" true (any (fun k -> not k.Kernel.parallel));
  check Alcotest.bool "an integer-only kernel" true (any (fun k -> not k.Kernel.fp))

(* -------------------- mem_opt on kernels -------------------- *)

let memopt_btree_vectorizes () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "btree") in
  let mo = Mem_opt.analyze dfg in
  (* Eight separator loads share the node base register. *)
  check Alcotest.bool "one group of 8" true
    (List.exists (fun g -> List.length g = 8) mo.Mem_opt.vector_groups)

let memopt_hotspot_vectorizes_stencil () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "hotspot") in
  let mo = Mem_opt.analyze dfg in
  check Alcotest.bool "five-point stencil coalesced" true
    (List.exists (fun g -> List.length g = 5) mo.Mem_opt.vector_groups)

let memopt_induction_regs () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "nn") in
  let mo = Mem_opt.analyze dfg in
  (* a0, a1, a2 are bumped pointers. *)
  check (Alcotest.list Alcotest.int) "pointer induction" [ 10; 11; 12 ]
    (List.sort compare mo.Mem_opt.induction_regs)

let memopt_prefetch_via_induction () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "gaussian") in
  let mo = Mem_opt.analyze dfg in
  check Alcotest.int "both streaming loads prefetchable" 2
    (List.length mo.Mem_opt.prefetched)

let memopt_forwarding_pair () =
  (* store then load of the same base+offset becomes a forwarding edge. *)
  let instrs =
    [|
      Isa.Rtype (Isa.ADD, 6, 5, 5);
      Isa.Store (Isa.SW, 6, 10, 8);
      Isa.Load (Isa.LW, 7, 10, 8);
      Isa.Rtype (Isa.ADD, 28, 7, 7);
      Isa.Itype (Isa.ADDI, 5, 5, 1);
      Isa.Branch (Isa.BLT, 5, 13, -20);
    |]
  in
  let region =
    {
      Region.entry = 0x1000;
      back_branch_addr = 0x1000 + 20;
      instrs;
      pragma = None;
      observed_iterations = 8;
    }
  in
  let dfg = Ldfg.build_exn region in
  let mo = Mem_opt.analyze dfg in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "load 2 forwards from store 1"
    [ (2, 1) ] mo.Mem_opt.forwarding

let memopt_no_forwarding_across_unknown_store () =
  (* An intervening store with a different base kills the forwarding. *)
  let instrs =
    [|
      Isa.Rtype (Isa.ADD, 6, 5, 5);
      Isa.Store (Isa.SW, 6, 10, 8);
      Isa.Store (Isa.SW, 6, 11, 0);  (* unknown alias *)
      Isa.Load (Isa.LW, 7, 10, 8);
      Isa.Itype (Isa.ADDI, 5, 5, 1);
      Isa.Branch (Isa.BLT, 5, 13, -20);
    |]
  in
  let region =
    {
      Region.entry = 0x1000;
      back_branch_addr = 0x1000 + 20;
      instrs;
      pragma = None;
      observed_iterations = 8;
    }
  in
  let dfg = Ldfg.build_exn region in
  let mo = Mem_opt.analyze dfg in
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "no pair" []
    mo.Mem_opt.forwarding

let suites =
  [
    ( "workloads",
      [
        Alcotest.test_case "registry" `Quick registry_complete;
        Alcotest.test_case "all kernels run and check" `Quick every_kernel_runs_and_checks;
        Alcotest.test_case "checks catch corruption" `Quick checks_catch_corruption;
        Alcotest.test_case "kernels fit C1" `Quick kernels_fit_trace_cache;
        Alcotest.test_case "parallel flags" `Quick parallel_flags_match_pragmas;
        Alcotest.test_case "slicing equivalence" `Quick slicing_is_equivalent;
        Alcotest.test_case "nn custom size" `Quick nn_custom_size;
        Alcotest.test_case "feature coverage" `Quick kernel_feature_coverage;
      ] );
    ( "mem_opt",
      [
        Alcotest.test_case "btree vectorizes" `Quick memopt_btree_vectorizes;
        Alcotest.test_case "hotspot stencil coalesced" `Quick memopt_hotspot_vectorizes_stencil;
        Alcotest.test_case "induction registers" `Quick memopt_induction_regs;
        Alcotest.test_case "prefetch via induction" `Quick memopt_prefetch_via_induction;
        Alcotest.test_case "forwarding pair" `Quick memopt_forwarding_pair;
        Alcotest.test_case "no forwarding across unknown store" `Quick
          memopt_no_forwarding_across_unknown_store;
      ] );
  ]
