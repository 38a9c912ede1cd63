(* Compare the simulated cycles of a `bench/main.exe --json` run against a
   committed baseline: every experiment in the baseline must be in the run
   with exactly its [simulated_cycles], and the run must have nothing the
   baseline lacks. Wall-clock throughput is not compared; the 2x bound of
   `bench --check` stays with CI.

   usage: bench_cycles RUN.json BASELINE.json *)

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("bench_cycles: " ^ m); exit 1) fmt

let cycles path =
  let entry e = Json.(field "name" string e, field "simulated_cycles" int e) in
  match
    Result.bind (Json.read_file path)
      (Json.decode ~what:path (Json.field "experiments" (Json.list entry)))
  with
  | Ok l -> l
  | Error e -> die "%s" e

let () =
  let run, base =
    match Sys.argv with
    | [| _; r; b |] -> (cycles r, cycles b)
    | _ -> die "usage: bench_cycles RUN.json BASELINE.json"
  in
  let bad = ref false in
  let complain fmt = Printf.ksprintf (fun m -> prerr_endline m; bad := true) fmt in
  List.iter
    (fun (name, c) ->
      match List.assoc_opt name run with
      | None -> complain "%s: not run" name
      | Some r when r <> c -> complain "%s: simulated_cycles %d, baseline %d" name r c
      | Some _ -> ())
    base;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name base) then complain "%s: no entry in the baseline" name)
    run;
  if !bad then exit 1
