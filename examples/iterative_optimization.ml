(* The feedback loop of Section 4.3: execute a profiling window on the
   fabric, fold the measured per-node and per-edge latencies back into the
   performance model, remap under the measured weights, and adopt the new
   configuration only when the model says it pays. Also prints the Figure 16
   amortization curve for this kernel.

     dune exec examples/iterative_optimization.exe *)

let () =
  let k = Workloads.find "cfd" in
  let dfg = Runner.dfg_of_kernel k in
  let model = Perf_model.create dfg in
  let grid = Grid.m128 in
  let placement =
    match Mapper.map ~grid ~kind:Interconnect.Mesh_noc model with
    | Ok p -> p
    | Error e -> failwith e
  in
  let config = Accel_config.plain placement in
  Printf.printf "initial modeled iteration latency: %.1f cycles (static weights)\n"
    (Perf_model.iteration_latency model);

  (* Profiling window: 64 iterations on the fabric. *)
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  let res =
    match Engine.execute ~stop_after:64 ~config ~dfg ~machine ~hier () with
    | Ok r -> r
    | Error e -> failwith e
  in
  Printf.printf "profiling window: %d iterations, %d cycles\n" res.Engine.iterations
    res.Engine.cycles;
  for i = 0 to Dfg.node_count dfg - 1 do
    match Stats.find_hist res.Engine.measured (Printf.sprintf "node.%d.amat" i) with
    | Some h when h.Stats.hcount > 0 ->
      Printf.printf "  measured AMAT of node %d (%s): %.1f cycles\n" i
        (Disasm.to_string dfg.Dfg.nodes.(i).Dfg.instr)
        (Stats.hist_mean h)
    | Some _ | None -> ()
  done;

  (* Feed the counters back and ask the optimizer for a better mapping. *)
  Optimizer.absorb model res;
  Printf.printf "modeled latency under measured weights: %.1f cycles\n"
    (Perf_model.iteration_latency model);
  (match Optimizer.step ~grid ~kind:Interconnect.Mesh_noc ~model ~current:config with
  | Optimizer.Adopt { latency; previous; _ } ->
    Printf.printf "optimizer: ADOPT a remap, modeled %.1f -> %.1f cycles\n" previous latency
  | Optimizer.Keep latency ->
    Printf.printf "optimizer: KEEP the current mapping (modeled %.1f cycles)\n" latency);

  (* Amortization (Figure 16): configuration energy is a sunk cost that the
     per-iteration energy dilutes over time. *)
  let _, report = Runner.mesa ~grid k in
  let accel = Energy_model.accel_energy ~grid report.Controller.activity in
  let iters = report.Controller.activity.Activity.iterations in
  let e_iter = accel.Energy_model.total_nj /. float_of_int (max 1 iters) in
  let e_config =
    Energy_model.mesa_energy_nj ~busy_cycles:report.Controller.mesa_busy_cycles
  in
  Printf.printf "\namortization: config energy %.0f nJ, steady %.1f nJ/iteration\n"
    e_config e_iter;
  List.iter
    (fun n ->
      Printf.printf "  after %4d iterations: %.1f nJ/iteration\n" n
        ((e_config +. (float_of_int n *. e_iter)) /. float_of_int n))
    [ 1; 10; 30; 70; 150; 500 ];
  Printf.printf "break-even at ~%.0f iterations (paper: ~70)\n" (e_config /. e_iter)
