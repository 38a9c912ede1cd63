(* Golden-stats regression: kernel_bfs on M-128, load-bearing counters only.
   The dune rule diffs this program's output against the checked-in
   golden_bfs_stats.json; any drift in cycle accounting, offload behaviour
   or cache traffic fails `dune runtest`.

   To regenerate after an intentional change:

     dune runtest; dune promote

   (or `dune build @runtest --auto-promote`). *)

let () =
  let k = Workloads.find "bfs" in
  let _, report = Runner.mesa ~options:(Controller.default_options ~grid:Grid.m128 ()) k in
  let s = report.Controller.stats in
  let pick p =
    match Stats.find s p with
    | Some (Stats.VInt i) -> Json.Int i
    | Some (Stats.VFloat f) -> Json.Float f
    | None -> failwith ("golden counter missing from snapshot: " ^ p)
  in
  let paths =
    [
      "controller.total_cycles";
      "controller.cpu_cycles";
      "controller.accel_cycles";
      "controller.overhead_cycles";
      "controller.mesa_busy_cycles";
      "controller.offloads";
      "controller.reconfigurations";
      "controller.translations";
      "controller.regions_accepted";
      "controller.regions_rejected";
      "cache.l1.hits";
      "cache.l1.misses";
      "cache.l2.hits";
      "cache.l2.misses";
      "engine.iterations";
      "engine.windows";
      "cpu.instructions";
      (* Fault-free run: the whole recovery ladder must stay cold. *)
      "faults.injected";
      "faults.detected";
      "faults.retried";
      "faults.remapped";
      "faults.quarantined";
      "faults.config_upsets";
      "controller.iteration_budget_aborts";
    ]
  in
  print_string
    (Json.to_string ~indent:2 (Json.Assoc (List.map (fun p -> (p, pick p)) paths)))
