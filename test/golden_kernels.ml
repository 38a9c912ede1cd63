(* Golden kernel matrix: every workload on the M-64 reference config, pinned
   by cycle count, offload count, the first reject/abandon reason (null when
   fully accelerated) and an FNV-1a checksum of final memory. The suite is
   the full kernel registry (Rodinia plus the DSL-built kernels) plus three
   fixed-seed programs from the tile-DSL random generator, so drift in the
   generator or the lowering pins the matrix too. The dune rule diffs this
   program's output against the checked-in golden_kernels.json; any drift in
   timing, offload policy or architectural results for any kernel fails
   `dune runtest`.

   To regenerate after an intentional change:

     dune runtest; dune promote

   (or `dune build @runtest --auto-promote`).

   A "refine" section pins the model-guided refinement pass on five
   reference kernels: the Algorithm-1 baseline cycles, the refined cycles
   (engine-confirmed, so never worse) and the accepted-move count. Any
   change to the cost model's ranking or the refinement search shows up
   here as a diff.

   A "model" section pins the cost model's exact outputs: for every
   registry kernel that maps at M-64, [Cost_model.estimate] and
   [Cost_model.predicted_activity] under the refine configuration at the
   refine horizon (what [Refine.run] scores), and again under the plain
   configuration (no tiling, no pipelining) so the non-pipelined II rule
   is pinned too. Floats print at round-trip precision, so any change to
   the model's timing arithmetic shows up here as a diff. *)

let generated_seeds = [ 101; 202; 303 ]
let refined_kernels = [ "nn"; "kmeans"; "bfs"; "cfd"; "hotspot" ]

let entry_of options name prepare program check =
  let mem = Main_memory.create () in
  let machine = prepare mem in
  let report = Controller.run ~options program machine in
  (match check mem with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s: wrong result: %s" name e));
  let reject =
    List.fold_left
      (fun acc (r : Controller.region_report) ->
        match acc with Some _ -> acc | None -> r.Controller.reject_reason)
      None report.Controller.regions
  in
  ( name,
    Json.Assoc
      [
        ("cycles", Json.Int report.Controller.total_cycles);
        ("offloads", Json.Int report.Controller.offloads);
        ( "reject",
          match reject with None -> Json.Null | Some r -> Json.String r );
        ("mem_checksum", Json.Int (Main_memory.checksum mem));
      ] )

let model_entry ~iterations dfg config =
  let e = Cost_model.estimate ~config ~dfg ~iterations () in
  let a =
    Cost_model.predicted_activity ~config ~dfg ~iterations ~cycles:e.Cost_model.cycles
  in
  Json.Assoc
    [
      ("cycles", Json.Int e.Cost_model.cycles);
      ("ii", Json.Float e.Cost_model.ii);
      ("ii_rec", Json.Float e.Cost_model.ii_rec);
      ("ii_mem", Json.Float e.Cost_model.ii_mem);
      ("ii_fu", Json.Float e.Cost_model.ii_fu);
      ("iter_latency", Json.Float e.Cost_model.iter_latency);
      ("simulated", Json.Int e.Cost_model.simulated);
      ("steady", Json.Bool e.Cost_model.steady);
      ( "critical",
        Json.String (String.concat " " (List.map string_of_int e.Cost_model.critical)) );
      ( "activity",
        Json.Assoc
          [
            ("int_ops", Json.Int a.Activity.int_ops);
            ("fp_ops", Json.Int a.Activity.fp_ops);
            ("mem_ops", Json.Int a.Activity.mem_ops);
            ("branch_ops", Json.Int a.Activity.branch_ops);
            ("disabled_ops", Json.Int a.Activity.disabled_ops);
            ("forwarded_loads", Json.Int a.Activity.forwarded_loads);
            ("local_transfers", Json.Int a.Activity.local_transfers);
            ("noc_transfers", Json.Int a.Activity.noc_transfers);
            ("iterations", Json.Int a.Activity.iterations);
            ("cycles", Json.Int a.Activity.cycles);
          ] );
    ]

let () =
  let options = Controller.default_options ~grid:Grid.m64 () in
  let suite =
    List.map
      (fun (k : Kernel.t) ->
        entry_of options k.Kernel.name
          (fun mem -> Kernel.prepare k mem)
          k.Kernel.program k.Kernel.check)
      (Workloads.all ())
  in
  let generated =
    List.map
      (fun seed ->
        let spec = Tile_gen.generate ~seed in
        let b = Tile_lower.lower_exn spec in
        entry_of options
          (Printf.sprintf "generated-%d" seed)
          (fun mem ->
            b.Tile_lower.setup mem;
            let machine =
              Machine.create ~pc:(Program.entry b.Tile_lower.program) mem
            in
            Machine.set_args machine (b.Tile_lower.args ~lo:0 ~hi:b.Tile_lower.n);
            machine)
          b.Tile_lower.program b.Tile_lower.check)
      generated_seeds
  in
  let refined =
    List.map
      (fun name ->
        match Refine.run ~seed:0 (Workloads.find name) with
        | Error e -> failwith (Printf.sprintf "refine %s: %s" name e)
        | Ok r ->
          ( "refine-" ^ name,
            Json.Assoc
              [
                ("baseline_cycles", Json.Int r.Refine.baseline_cycles);
                ("refined_cycles", Json.Int r.Refine.refined_cycles);
                ("accepted", Json.Int r.Refine.accepted);
              ] ))
      refined_kernels
  in
  let model =
    List.filter_map
      (fun (k : Kernel.t) ->
        match Refine.run ~max_rounds:0 k with
        | Error _ -> None
        | Ok r ->
          let iterations = min r.Refine.iterations 128 in
          let plain = Accel_config.plain r.Refine.config.Accel_config.placement in
          Some
            ( k.Kernel.name,
              Json.Assoc
                [
                  ("refine", model_entry ~iterations r.Refine.dfg r.Refine.config);
                  ("plain", model_entry ~iterations r.Refine.dfg plain);
                ] ))
      (Workloads.all ())
  in
  print_string
    (Json.to_string ~indent:2
       (Json.Assoc (suite @ generated @ refined @ [ ("model", Json.Assoc model) ])))
