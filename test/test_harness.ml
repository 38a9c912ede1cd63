let check = Alcotest.check

let multicore_parallel_speedup () =
  let k = Workloads.find "gaussian" in
  let single = Runner.single_core k in
  let multi = Runner.multicore k in
  check Alcotest.bool "single correct" true (single.Runner.checked = Ok ());
  check Alcotest.bool "multi correct" true (multi.Runner.checked = Ok ());
  check Alcotest.bool "parallel speedup" true (multi.Runner.cycles < single.Runner.cycles)

let multicore_serial_kernel_single_thread () =
  let k = Workloads.find "nw" in
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let r = Multicore.run k mem in
  check Alcotest.int "one thread" 1 r.Multicore.threads;
  check Alcotest.bool "correct" true (k.Kernel.check mem = Ok ())

let multicore_threads_and_overhead () =
  let k = Workloads.find "nn" in
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let r = Multicore.run ~cores:16 k mem in
  check Alcotest.int "sixteen threads" 16 r.Multicore.threads;
  check Alcotest.int "one summary per thread" 16 (List.length r.Multicore.summaries);
  let slowest =
    List.fold_left (fun acc s -> max acc s.Ooo_model.cycles) 0 r.Multicore.summaries
  in
  check Alcotest.int "fork/join overhead applied"
    (slowest + Multicore.default_fork_join_cycles)
    r.Multicore.cycles;
  check Alcotest.bool "correct" true (k.Kernel.check mem = Ok ())

(* Slice boundaries with n < cores: surplus slices are empty, only
   populated ones spawn threads, and padding with empty slices leaves the
   cycle count exactly at the dense (cores = populated) run's value. *)
let multicore_sparse_slices () =
  let k = Workloads.nn ~n:10 () in
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let sparse = Multicore.run ~cores:16 k mem in
  check Alcotest.int "threads = populated slices" 10 sparse.Multicore.threads;
  check Alcotest.int "one summary per populated slice" 10
    (List.length sparse.Multicore.summaries);
  check Alcotest.bool "correct" true (k.Kernel.check mem = Ok ());
  let mem_dense = Main_memory.create () in
  k.Kernel.setup mem_dense;
  let dense = Multicore.run ~cores:10 k mem_dense in
  check Alcotest.int "cycles unchanged vs dense run" dense.Multicore.cycles
    sparse.Multicore.cycles;
  check Alcotest.(list int) "per-slice cycles unchanged vs dense run"
    (List.map (fun s -> s.Ooo_model.cycles) dense.Multicore.summaries)
    (List.map (fun s -> s.Ooo_model.cycles) sparse.Multicore.summaries)

let multicore_empty_high_slices () =
  (* n divides cores: the populated slices sit at the tail of each group,
     every other slice is empty. *)
  let k = Workloads.nn ~n:4 () in
  let mem = Main_memory.create () in
  k.Kernel.setup mem;
  let r = Multicore.run ~cores:16 k mem in
  check Alcotest.int "four populated slices" 4 r.Multicore.threads;
  check Alcotest.int "four summaries" 4 (List.length r.Multicore.summaries);
  check Alcotest.bool "correct" true (k.Kernel.check mem = Ok ())

let translation_memo_shares_results () =
  let k = Workloads.find "bfs" in
  let d1 = Runner.dfg_of_kernel k in
  let d2 = Runner.dfg_of_kernel k in
  check Alcotest.bool "same LDFG object" true (d1 == d2);
  let p1 = Runner.placement_of ~grid:Grid.m128 k in
  let p2 = Runner.placement_of ~grid:Grid.m128 k in
  check Alcotest.bool "same placement object" true (p1 == p2);
  let hits, misses, _ = Runner.translation_cache_stats () in
  check Alcotest.bool "cache hit recorded" true (hits >= 2);
  check Alcotest.bool "cache miss recorded" true (misses >= 2);
  (* Different geometry is a different key. *)
  let p64 = Runner.placement_of ~grid:Grid.m64 k in
  check Alcotest.bool "distinct grid, distinct entry" true (not (p64 == p1));
  Runner.clear_translation_cache ();
  let d3 = Runner.dfg_of_kernel k in
  check Alcotest.bool "cleared cache rebuilds" true (not (d1 == d3))

let translation_memo_eviction () =
  let saved = Runner.translation_cache_capacity () in
  Fun.protect
    ~finally:(fun () ->
      Runner.set_translation_cache_capacity saved;
      Runner.clear_translation_cache ())
    (fun () ->
      Runner.clear_translation_cache ();
      Runner.set_translation_cache_capacity 3;
      check Alcotest.int "capacity readable" 3 (Runner.translation_cache_capacity ());
      (* Each kernel costs one dfg_memo entry; four distinct grids per kernel
         cost four placement_memo entries — far past a bound of 3. *)
      let k = Workloads.find "bfs" in
      let grids =
        List.map (fun rows -> Grid.make ~rows ~cols:4 ()) [ 2; 4; 6; 8 ]
      in
      List.iter (fun grid -> ignore (Runner.placement_of ~grid k)) grids;
      let _, _, evictions = Runner.translation_cache_stats () in
      check Alcotest.bool "overflow resets the tables" true (evictions >= 1);
      (* The memo still works after a reset: a repeated lookup hits. *)
      let p1 = Runner.placement_of ~grid:(List.hd grids) k in
      let p2 = Runner.placement_of ~grid:(List.hd grids) k in
      check Alcotest.bool "recompute after eviction is shared" true (p1 == p2);
      check Alcotest.bool "capacity below 1 rejected" true
        (match Runner.set_translation_cache_capacity 0 with
        | () -> false
        | exception Invalid_argument _ -> true))

let mesa_measurement_checked () =
  let k = Workloads.find "srad" in
  let m, report = Runner.mesa k in
  check Alcotest.bool "correct" true (m.Runner.checked = Ok ());
  check Alcotest.int "cycles match report" report.Controller.total_cycles m.Runner.cycles;
  check Alcotest.bool "energy positive" true (m.Runner.energy_nj > 0.0);
  let single = Runner.single_core k in
  match Tables.data_rows (Runner.comparison_table k [ single; m ]) with
  | [ [ _; _; base; _; ok1 ]; [ label; cycles; _; _; ok2 ] ] ->
    check Alcotest.string "speedups are over the first row" "1.00x" base;
    check Alcotest.string "label" m.Runner.label label;
    check Alcotest.string "cycles" (Tables.icell m.Runner.cycles) cycles;
    check Alcotest.(list string) "output checks" [ "ok"; "ok" ] [ ok1; ok2 ]
  | _ -> Alcotest.fail "one five-column row per measurement"

let mesa_mem_ports_override () =
  let k = Workloads.nn ~n:1024 () in
  let narrow, _ = Runner.mesa ~mem_ports:1 k in
  let wide, _ = Runner.mesa ~mem_ports:64 k in
  check Alcotest.bool "ports matter" true (wide.Runner.cycles < narrow.Runner.cycles)

let dfg_of_kernel_total () =
  List.iter
    (fun (k : Kernel.t) ->
      let dfg = Runner.dfg_of_kernel k in
      check Alcotest.bool (k.Kernel.name ^ " validates") true (Dfg.validate dfg = Ok ()))
    (Workloads.all ())

let speedup_and_efficiency_helpers () =
  let base =
    { Runner.label = "b"; cycles = 1000; energy_nj = 500.0; checked = Ok ();
      stats = Stats.snapshot (Stats.registry ()) }
  in
  let fast =
    { Runner.label = "f"; cycles = 250; energy_nj = 250.0; checked = Ok ();
      stats = Stats.snapshot (Stats.registry ()) }
  in
  check (Alcotest.float 1e-9) "speedup" 4.0 (Runner.speedup ~baseline:base fast);
  check (Alcotest.float 1e-9) "efficiency" 2.0 (Runner.efficiency ~baseline:base fast)

(* Experiments: smoke-run the cheap ones and check their headline shapes.
   The expensive ones run in the benchmark executable. *)

let experiment_fig15_shape () =
  let o = Experiments.fig15 ~n:512 () in
  let v name = List.assoc name o.Experiments.summary in
  check Alcotest.bool "512-PE default much slower than ideal scaling" true
    (v "default_512pe_speedup" < 24.0);
  check Alcotest.bool "but still scales beyond 1" true (v "default_512pe_speedup" > 2.0)

let experiment_fig16_shape () =
  let o = Experiments.fig16 ~n:512 () in
  let be = List.assoc "breakeven_iterations" o.Experiments.summary in
  check Alcotest.bool "amortization in the paper's decade" true (be > 10.0 && be < 300.0)

let experiment_table1_shape () =
  let o = Experiments.table1 () in
  let f = List.assoc "mesa_core_area_fraction" o.Experiments.summary in
  check Alcotest.bool "under 10%" true (f < 0.10)

let experiment_table2_shape () =
  let o = Experiments.table2 () in
  let lo = List.assoc "config_cycles_min" o.Experiments.summary in
  let hi = List.assoc "config_cycles_max" o.Experiments.summary in
  check Alcotest.bool "JIT band 10^3-10^4" true (lo >= 500.0 && hi <= 20000.0)

let experiment_fig11_small () =
  let kernels = [ Workloads.find "gaussian"; Workloads.nn ~n:1024 () ] in
  let o = Experiments.fig11 ~kernels () in
  let v name = List.assoc name o.Experiments.summary in
  check Alcotest.bool "speedups computed" true (v "m128_speedup_geomean" > 0.2);
  check Alcotest.bool "efficiency computed" true (v "m128_efficiency_geomean" > 0.2);
  (* The rendered table mentions both kernels. *)
  let text = Tables.render o.Experiments.table in
  check Alcotest.bool "table has rows" true
    (String.split_on_char '\n' text
    |> List.exists (fun l -> String.length l > 2 && String.sub l 0 2 = "| "))

let experiment_fig12_small () =
  let o = Experiments.fig12 ~kernels:[ Workloads.find "gaussian" ] () in
  let noopt = List.assoc "noopt_vs_opencgra" o.Experiments.summary in
  let opt = List.assoc "opt_vs_opencgra" o.Experiments.summary in
  check Alcotest.bool "no-opt behind the compiler" true (noopt < 1.0);
  check Alcotest.bool "optimized ahead" true (opt > 1.0)

let experiment_fig14_small () =
  let o = Experiments.fig14 ~kernels:[ Workloads.find "lud" ] () in
  let m64 = List.assoc "m64_geomean" o.Experiments.summary in
  check Alcotest.bool "M-64 beats the single core on lud" true (m64 > 1.0)

let suites =
  [
    ( "multicore",
      [
        Alcotest.test_case "parallel speedup" `Quick multicore_parallel_speedup;
        Alcotest.test_case "serial kernel single thread" `Quick multicore_serial_kernel_single_thread;
        Alcotest.test_case "threads and overhead" `Quick multicore_threads_and_overhead;
        Alcotest.test_case "sparse slices (n < cores)" `Quick multicore_sparse_slices;
        Alcotest.test_case "empty high slices" `Quick multicore_empty_high_slices;
      ] );
    ( "runner",
      [
        Alcotest.test_case "mesa measurement" `Quick mesa_measurement_checked;
        Alcotest.test_case "translation memo" `Quick translation_memo_shares_results;
        Alcotest.test_case "translation memo eviction" `Quick translation_memo_eviction;
        Alcotest.test_case "mem ports override" `Quick mesa_mem_ports_override;
        Alcotest.test_case "dfg of every kernel" `Quick dfg_of_kernel_total;
        Alcotest.test_case "speedup/efficiency" `Quick speedup_and_efficiency_helpers;
      ] );
    ( "experiments",
      [
        Alcotest.test_case "fig15 shape" `Slow experiment_fig15_shape;
        Alcotest.test_case "fig16 shape" `Slow experiment_fig16_shape;
        Alcotest.test_case "table1 shape" `Quick experiment_table1_shape;
        Alcotest.test_case "table2 shape" `Quick experiment_table2_shape;
        Alcotest.test_case "fig11 smoke" `Slow experiment_fig11_small;
        Alcotest.test_case "fig12 smoke" `Slow experiment_fig12_small;
        Alcotest.test_case "fig14 smoke" `Slow experiment_fig14_small;
      ] );
  ]
