(* Golden-profile regression: bfs on M-64 with the cycle-attribution
   profiler armed. Pins the bucket totals, the closure accounting, the
   dominant bottleneck and the measured critical path — any drift in the
   stall taxonomy fails `dune runtest`.

   To regenerate after an intentional change:

     dune runtest; dune promote

   (or `dune build @runtest --auto-promote`). *)

let () =
  let k = Workloads.find "bfs" in
  let _, report = Runner.mesa ~options:(Controller.default_options ~grid:Grid.m64 ~profile:true ()) k in
  let p =
    match Profile.of_report ~kernel:"bfs" report with
    | Ok p -> p
    | Error e -> failwith e
  in
  if not (Profile.closes p) then failwith "golden profile does not close";
  let buckets =
    List.map
      (fun b ->
        ( Attribution.bucket_name b,
          Json.Int p.Profile.totals.(Attribution.bucket_index b) ))
      Attribution.buckets
  in
  print_string
    (Json.to_string ~indent:2
       (Json.Assoc
          [
            ("kernel", Json.String p.Profile.kernel);
            ("grid", Json.String p.Profile.grid_name);
            ("total_cycles", Json.Int p.Profile.total_cycles);
            ("accel_cycles", Json.Int p.Profile.accel_cycles);
            ("config_cycles", Json.Int p.Profile.config_cycles);
            ("attributed_cycles", Json.Int p.Profile.attributed_cycles);
            ("iterations", Json.Int p.Profile.iterations);
            ("windows", Json.Int p.Profile.windows);
            ("buckets", Json.Assoc buckets);
            ("dominant", Json.String (Attribution.bucket_name p.Profile.dominant));
            ( "critical_path_nodes",
              Json.Int (List.length p.Profile.critical_path) );
            ( "critical_path_latency",
              Json.Float p.Profile.critical_path_latency );
            ("ii_mean", Json.Float p.Profile.ii.Attribution.ii_mean);
            ("ii_rec_mean", Json.Float p.Profile.ii.Attribution.ii_rec_mean);
            ("ii_mem_mean", Json.Float p.Profile.ii.Attribution.ii_mem_mean);
            ("port_claims", Json.Int p.Profile.port_claims);
            ("port_busy", Json.Int p.Profile.port_busy);
          ]))
