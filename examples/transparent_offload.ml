(* Transparent offload of a real Rodinia kernel (nn, the nearest-neighbor
   distance computation the paper scales in Figure 15), showing each stage
   the MESA hardware walks through: detection, LDFG, spatial mapping,
   configuration, execution, and the resulting speedups over the CPU
   baselines.

     dune exec examples/transparent_offload.exe *)

let () =
  let k = Workloads.find "nn" in
  Printf.printf "kernel: %s — %s (%d iterations)\n\n" k.Kernel.name
    k.Kernel.description k.Kernel.n;

  (* What the detector will see: the loop's machine code. *)
  print_endline "hot loop:";
  print_string (Disasm.listing k.Kernel.program);

  (* T1 — the logical DFG the rename table produces. *)
  let dfg = Runner.dfg_of_kernel k in
  Format.printf "@.LDFG (T1):@.%a@." Dfg.pp dfg;

  (* T2 — Algorithm 1 places it on the M-128 fabric. *)
  let model = Perf_model.create dfg in
  let placement =
    match Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model with
    | Ok p -> p
    | Error e -> failwith e
  in
  Format.printf "SDFG placement (T2):@.%a@." Placement.pp placement;
  Format.printf "modeled iteration latency: %.1f cycles; critical path %s@."
    (Perf_model.iteration_latency model)
    (String.concat " -> " (List.map string_of_int (Perf_model.critical_path model)));

  (* T3 — the memory and loop optimizations, and configuration sizing. *)
  let config =
    Controller.optimized_config ~grid:Grid.m128 ~dfg
      ~pragma:(Program.pragma_at k.Kernel.program dfg.Dfg.entry_addr)
      placement
  in
  Printf.printf
    "configuration (T3): %d bits, %d cycles to write; tiling x%d; %d prefetched load(s)\n\n"
    (Accel_config.bitstream_bits config dfg)
    (Accel_config.config_cycles config dfg)
    config.Accel_config.tiling
    (List.length config.Accel_config.prefetched);

  (* End to end against the baselines. *)
  let single = Runner.single_core k in
  let multi = Runner.multicore k in
  let mesa, report = Runner.mesa ~grid:Grid.m128 k in
  Printf.printf "1-core OoO : %7d cycles\n" single.Runner.cycles;
  Printf.printf "16-core OoO: %7d cycles (%.2fx)\n" multi.Runner.cycles
    (Runner.speedup ~baseline:single multi);
  Printf.printf "MESA M-128 : %7d cycles (%.2fx vs 1 core, %.2fx vs 16 cores)\n"
    mesa.Runner.cycles
    (Runner.speedup ~baseline:single mesa)
    (Runner.speedup ~baseline:multi mesa);
  Printf.printf "energy efficiency vs 16-core: %.2fx\n"
    (Runner.efficiency ~baseline:multi mesa);
  Printf.printf "offloads: %d; outputs verified: %b\n" report.Controller.offloads
    (mesa.Runner.checked = Ok ())
