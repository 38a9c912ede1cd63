(* The benchmark executable regenerates every table and figure of the
   paper's evaluation (Section 6) and then times the hardware-critical
   algorithms with Bechamel.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- fig11        -- one experiment
     dune exec bench/main.exe -- micro        -- only the micro-benchmarks
     dune exec bench/main.exe -- list         -- experiment names

   Options (before the experiment names):
     --jobs N     run each experiment's measurements on N domains
                  (default 1; the tables are bit-identical for any N)
     --json PATH  dump per-experiment timings as JSON (schema v2: wall
                  clock plus simulated_cycles / cycles_per_second)
     --check PATH compare against a baseline JSON: every experiment run
                  must have an entry, simulated_cycles must match exactly,
                  cycles_per_second may not regress >2x
     --csv DIR    write each outcome as CSV *)

(* Figure-style ASCII charts rendered next to the tables. *)
(* Parse a "1.33x"-style ratio cell. [None] on anything malformed — a
   malformed cell must drop its row from the chart, not plot as a 0.0 bar
   that looks like a real measurement. *)
let strip s =
  if String.length s < 2 then None
  else float_of_string_opt (String.sub s 0 (String.length s - 1))

let strip_row ~name ~key cells =
  match List.map strip cells |> List.fold_left
          (fun acc v -> match acc, v with Some l, Some x -> Some (x :: l) | _ -> None)
          (Some [])
  with
  | Some vs -> Some (List.rev vs)
  | None ->
    Printf.eprintf "[%s chart: skipping row %S with unparseable cells]\n" name key;
    None

let chart_of name (o : Experiments.outcome) =
  let rows = Tables.data_rows o.Experiments.table in
  match name with
  | "fig11" ->
    let series =
      List.filter_map
        (fun row ->
          match row with
          | [ k; m128; m512; _; _; _ ] when k <> "geomean" && k <> "paper (avg)" ->
            Option.map (fun vs -> (k, vs)) (strip_row ~name ~key:k [ m128; m512 ])
          | _ -> None)
        rows
    in
    Some
      (Chart.grouped ~title:"Figure 11 (chart): speedup vs 16-core CPU"
         ~series_names:[ "M-128"; "M-512" ] series)
  | "fig15" ->
    let series =
      List.filter_map
        (fun row ->
          match row with
          | [ pes; dflt; _; _ ] when pes <> "paper" ->
            Option.map
              (fun vs -> (pes ^ " PEs", List.hd vs))
              (strip_row ~name ~key:pes [ dflt ])
          | _ -> None)
        rows
    in
    Some (Chart.bars ~title:"Figure 15 (chart): nn scaling, default memory" series)
  | _ -> None

(* Per-experiment (wall-clock seconds, simulated-cycle delta) pairs,
   accumulated for --json / --check. The cycle delta comes from the
   process-wide {!Sim_meter}, so it is exact and jobs-invariant — CI can
   equality-gate on it while only tolerance-gating the wall clock. *)
let timings : (string * float * int) list ref = ref []

let run_experiment ?csv_dir ?jobs name (f : Suite.experiment) =
  let t0 = Unix.gettimeofday () in
  let c0 = Sim_meter.read () in
  let outcome = f ?jobs () in
  let dt = Unix.gettimeofday () -. t0 in
  let cycles = Sim_meter.read () - c0 in
  timings := (name, dt, cycles) :: !timings;
  Printf.printf "\n";
  Tables.print outcome.Experiments.table;
  (match chart_of name outcome with
  | Some chart ->
    print_newline ();
    print_string chart
  | None -> ());
  (match csv_dir with
  | Some dir ->
    let path = Filename.concat dir (name ^ ".csv") in
    Export.write_file ~path (Export.outcome_to_csv outcome);
    Printf.printf "[wrote %s]\n" path
  | None -> ());
  Printf.printf "[%s finished in %.1fs]\n%!" name dt

(* Schema v2 adds [schema_version] plus per-experiment [simulated_cycles]
   and [cycles_per_second]; every v1 field keeps its name and meaning, so
   v1 consumers keep working. *)
let write_timings ~path ~jobs =
  let ts = List.rev !timings in
  let total = List.fold_left (fun acc (_, dt, _) -> acc +. dt) 0.0 ts in
  let json =
    Json.Assoc
      [
        ("schema_version", Json.Int 2);
        ("jobs", Json.Int (match jobs with None -> 1 | Some j -> j));
        ("total_seconds", Json.Float total);
        ( "experiments",
          Json.List
            (List.map
               (fun (name, dt, cycles) ->
                 Json.Assoc
                   [
                     ("name", Json.String name);
                     ("seconds", Json.Float dt);
                     ("simulated_cycles", Json.Int cycles);
                     ( "cycles_per_second",
                       Json.Float
                         (if dt > 0.0 then float_of_int cycles /. dt else 0.0) );
                   ])
               ts) );
      ]
  in
  Json.write_file path json;
  Printf.printf "[wrote %s]\n%!" path

(* --check BASELINE.json: compare this run against a committed schema-v2
   baseline. [simulated_cycles] must match exactly (the simulation is
   deterministic — any drift is a correctness bug, not noise); the wall
   clock only fails when [cycles_per_second] drops more than 2x below the
   baseline, a loose bound that survives shared CI runners. An experiment
   run here but absent from the baseline fails the check, so a stale
   baseline cannot silently gate nothing; baselines without cycle fields
   (schema v1) are not compared. *)
let check_against ~path =
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("[check] " ^ s); true) fmt in
  let entry e =
    let open Json in
    let name = field "name" string e in
    let cycles = field_opt "simulated_cycles" int e in
    let cps = field_opt "cycles_per_second" float e in
    (name, (cycles, cps))
  in
  match
    Result.bind (Json.read_file path)
      (Json.decode ~what:path (Json.field_or ~default:[] "experiments" (Json.list entry)))
  with
  | Error e ->
    Printf.eprintf "[check] %s\n" e;
    exit 1
  | Ok base ->
    let bad = ref false in
    List.iter
      (fun (name, dt, cycles) ->
        match List.assoc_opt name base with
        | None -> bad := fail "%s: no entry in the baseline" name || !bad
        | Some (base_cycles, base_cps) ->
          (match base_cycles with
          | Some c when c <> cycles ->
            bad := fail "%s: simulated_cycles %d, baseline %d" name cycles c || !bad
          | _ -> ());
          (match base_cps with
          | Some base_cps when base_cps > 0.0 ->
            let cps = if dt > 0.0 then float_of_int cycles /. dt else 0.0 in
            if cps < base_cps /. 2.0 then
              bad :=
                fail "%s: %.3g cycles/s is >2x below baseline %.3g" name cps base_cps
                || !bad
          | _ -> ()))
      (List.rev !timings);
    if !bad then exit 1;
    Printf.printf "[check] ok against %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure, timing the piece of
   MESA machinery that experiment leans on.                             *)

let nn_small = Workloads.nn ~n:256 ()
let dfg_nn = lazy (Runner.dfg_of_kernel nn_small)

let staged_controller () =
  (* fig11/fig14 backbone: a full monitored, translated, offloaded run. *)
  let mem = Main_memory.create () in
  let machine = Kernel.prepare nn_small mem in
  ignore (Controller.run nn_small.Kernel.program machine)

let staged_modulo_schedule () =
  (* fig12: OpenCGRA's modulo scheduler. *)
  ignore (Opencgra.schedule (Lazy.force dfg_nn) ~grid:Grid.m128)

let staged_energy () =
  (* fig13/fig16: energy accounting over a synthetic activity record. *)
  let a = Activity.create () in
  a.Activity.int_ops <- 10_000;
  a.Activity.fp_ops <- 10_000;
  a.Activity.mem_ops <- 5_000;
  a.Activity.local_transfers <- 30_000;
  a.Activity.noc_transfers <- 2_000;
  a.Activity.cycles <- 40_000;
  ignore (Energy_model.accel_energy ~grid:Grid.m128 a)

let staged_dynaspam () =
  (* fig14 baseline: the DynaSpAM analytic model. *)
  ignore (Dynaspam.run (Lazy.force dfg_nn) ~iterations:1000)

let staged_engine () =
  (* fig15 backbone: one accelerator execution of the nn loop. *)
  let dfg = Lazy.force dfg_nn in
  let model = Perf_model.create dfg in
  let placement =
    Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model)
  in
  let config = Accel_config.with_opts ~tiling:4 ~pipelined:true placement in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare nn_small mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  ignore (Engine.execute ~config ~dfg ~machine ~hier ())

let staged_mapper () =
  (* Algorithm 1, the latency-minimizing instruction mapping (fig16 pays
     this on every reconfiguration). *)
  ignore
    (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc
       (Perf_model.create (Lazy.force dfg_nn)))

let staged_area_model () =
  (* table1: the parametric synthesis model. *)
  ignore (Area_model.full_table ~capacity:512 ~grid:Grid.m128)

let staged_translation () =
  (* table2: LDFG build + map + configuration sizing. *)
  let dfg = Lazy.force dfg_nn in
  let model = Perf_model.create dfg in
  match Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model with
  | Ok placement ->
    ignore
      (Config_manager.translation_cycles dfg (Accel_config.plain placement))
  | Error _ -> ()

let micro_benchmarks () =
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"mesa"
      [
        Test.make ~name:"fig11+fig14:controller-end-to-end" (Staged.stage staged_controller);
        Test.make ~name:"fig12:opencgra-modulo-schedule" (Staged.stage staged_modulo_schedule);
        Test.make ~name:"fig13:energy-accounting" (Staged.stage staged_energy);
        Test.make ~name:"fig14:dynaspam-model" (Staged.stage staged_dynaspam);
        Test.make ~name:"fig15:engine-execution" (Staged.stage staged_engine);
        Test.make ~name:"fig16:mapper-algorithm1" (Staged.stage staged_mapper);
        Test.make ~name:"table1:area-model" (Staged.stage staged_area_model);
        Test.make ~name:"table2:translation-cost" (Staged.stage staged_translation);
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let t =
    Tables.create ~title:"Micro-benchmarks (Bechamel, monotonic clock)"
      [ ("benchmark", Tables.Left); ("time per run", Tables.Right) ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
        let pretty =
          if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        in
        rows := (name, pretty) :: !rows
      | _ -> rows := (name, "n/a") :: !rows)
    results;
  List.iter (fun (n, v) -> Tables.add_row t [ n; v ]) (List.sort compare !rows);
  print_newline ();
  Tables.print t

let () =
  let rec parse_opts (csv_dir, jobs, json, check) = function
    | "--csv" :: dir :: rest ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      parse_opts (Some dir, jobs, json, check) rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> parse_opts (csv_dir, Some j, json, check) rest
      | Some _ | None ->
        Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
        exit 1)
    | "--json" :: path :: rest -> parse_opts (csv_dir, jobs, Some path, check) rest
    | "--check" :: path :: rest -> parse_opts (csv_dir, jobs, json, Some path) rest
    | rest -> ((csv_dir, jobs, json, check), rest)
  in
  let (csv_dir, jobs, json, check), args =
    parse_opts (None, None, None, None) (List.tl (Array.to_list Sys.argv))
  in
  let finish () =
    (match json with Some path -> write_timings ~path ~jobs | None -> ());
    match check with Some path -> check_against ~path | None -> ()
  in
  match args with
  | [] ->
    List.iter (fun (name, f) -> run_experiment ?csv_dir ?jobs name f) Suite.all;
    finish ();
    micro_benchmarks ()
  | [ "micro" ] -> micro_benchmarks ()
  | [ "list" ] ->
    List.iter (fun (name, _) -> print_endline name) Suite.all;
    print_endline "micro"
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name Suite.all with
        | Some f -> run_experiment ?csv_dir ?jobs name f
        | None ->
          Printf.eprintf "unknown experiment %s (try: dune exec bench/main.exe -- list)\n"
            name;
          exit 1)
      names;
    finish ()
