let check = Alcotest.check

(* -------------------- imap FSM -------------------- *)

let fsm_stage_structure () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "gaussian") in
  let n = Dfg.node_count dfg in
  let diagram = Imap_fsm.timing_diagram ~max_nodes:n dfg in
  let rows =
    List.filteri (fun i l -> i >= 1 && l <> "") (String.split_on_char '\n' diagram)
  in
  check Alcotest.int "one row per node" n (List.length rows);
  (* Node i occupies the cycles right after node i - 1: fetch, candidates,
     filter, five reduction levels, writeback. *)
  let per_node = 9 in
  check Alcotest.int "cycles per node" (per_node * n) (Mapper.map_cycles dfg);
  List.iteri
    (fun i row ->
      let cells = String.sub row 5 (String.length row - 5) in
      check Alcotest.string (Printf.sprintf "node %d stages" i)
        (String.make (i * per_node) '.' ^ "FGLRRRRRW"
        ^ String.make ((n - i - 1) * per_node) '.')
        cells)
    rows

let fsm_reduction_depth () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "nn") in
  check Alcotest.int "4x8 window reduces in 5" (4 + 5)
    (Mapper.map_cycles dfg / Dfg.node_count dfg)

let fsm_timing_diagram () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "gaussian") in
  let d = Imap_fsm.timing_diagram ~max_nodes:4 dfg in
  check Alcotest.bool "mentions stages" true
    (String.length d > 0
    && String.exists (( = ) 'F') d
    && String.exists (( = ) 'R') d
    && String.exists (( = ) 'W') d)

(* -------------------- schedule view -------------------- *)

let schedule_slots_consistent () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "gaussian") in
  let model = Perf_model.create dfg in
  let placement =
    Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model)
  in
  let slots = Schedule_view.compute model placement in
  check Alcotest.int "one slot per node" (Dfg.node_count dfg) (Array.length slots);
  Array.iteri
    (fun i s ->
      check Alcotest.int "indexed" i s.Schedule_view.node;
      check Alcotest.bool "duration = op latency" true
        (Float.abs (s.Schedule_view.finish -. s.Schedule_view.start
                    -. Perf_model.op_latency model i)
        < 1e-9))
    slots;
  check (Alcotest.float 1e-9) "makespan = model latency"
    (Perf_model.iteration_latency model)
    (Array.fold_left (fun acc s -> Float.max acc s.Schedule_view.finish) 0.0 slots);
  (* Dependencies never start before their producers finish. *)
  Array.iteri
    (fun j nd ->
      Array.iter
        (function
          | Dfg.Node i ->
            check Alcotest.bool "producer first" true
              (slots.(i).Schedule_view.finish <= slots.(j).Schedule_view.start +. 1e-9)
          | Dfg.Reg_in _ -> ())
        nd.Dfg.srcs)
    dfg.Dfg.nodes

let schedule_gantt_renders () =
  let dfg = Runner.dfg_of_kernel (Workloads.find "nn") in
  let model = Perf_model.create dfg in
  let placement =
    Result.get_ok (Mapper.map ~grid:Grid.m128 ~kind:Interconnect.Mesh_noc model)
  in
  let slots = Schedule_view.compute model placement in
  let g = Schedule_view.gantt dfg slots in
  check Alcotest.bool "has bars" true (String.exists (( = ) '=') g);
  check Alcotest.bool "mentions LS entries" true
    (String.length g > 0
    && String.split_on_char '\n' g
       |> List.exists (fun l -> String.length l > 6 && String.sub l 5 2 = "LS"))

(* -------------------- ablation -------------------- *)

let ablation_variant_semantics () =
  let k = Workloads.find "gaussian" in
  let full = Ablation.run_variant Ablation.Full k in
  let nothing = Ablation.run_variant Ablation.Nothing k in
  let no_tiling = Ablation.run_variant Ablation.No_tiling k in
  check Alcotest.bool "all variants correct" true
    (List.for_all (fun m -> m.Runner.checked = Ok ()) [ full; nothing; no_tiling ]);
  check Alcotest.bool "full fastest" true
    (full.Runner.cycles <= nothing.Runner.cycles
    && full.Runner.cycles <= no_tiling.Runner.cycles);
  check Alcotest.bool "tiling matters on a parallel kernel" true
    (no_tiling.Runner.cycles > full.Runner.cycles)

let ablation_experiment_smoke () =
  let o = Ablation.experiment ~kernels:[ Workloads.find "gaussian" ] () in
  check Alcotest.int "one summary per variant" (List.length Ablation.all_variants)
    (List.length o.Experiments.summary);
  check Alcotest.bool "full >= bare" true
    (List.assoc "ablation_full" o.Experiments.summary
    >= List.assoc "ablation_bare mapping" o.Experiments.summary)

(* -------------------- export & chart -------------------- *)

let csv_escaping () =
  let t = Tables.create [ ("a", Tables.Left); ("b", Tables.Left) ] in
  Tables.add_row t [ "plain"; "with,comma" ];
  Tables.add_rule t;
  Tables.add_row t [ "with\"quote"; "multi\nline" ];
  let csv = Export.outcome_to_csv { Experiments.table = t; summary = [] } in
  check Alcotest.string "csv"
    "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",\"multi\nline\"\n\nmetric,value\n" csv

let csv_summary () =
  let table = Tables.create [ ("a", Tables.Left) ] in
  check Alcotest.string "summary csv" "a\n\nmetric,value\nx,1.5\ny,2\n"
    (Export.outcome_to_csv { Experiments.table; summary = [ ("x", 1.5); ("y", 2.0) ] })

let csv_outcome_and_file () =
  let o = Experiments.table1 () in
  let csv = Export.outcome_to_csv o in
  check Alcotest.bool "has header" true
    (String.length csv > 0 && String.sub csv 0 9 = "component");
  let path = Filename.temp_file "mesa" ".csv" in
  Export.write_file ~path csv;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  check Alcotest.string "file written" "component,area,power" line

let chart_rendering () =
  let c = Chart.bars ~title:"speedups" [ ("a", 2.0); ("bb", 0.5) ] in
  let lines = String.split_on_char '\n' c in
  check Alcotest.bool "title" true (List.hd lines = "speedups");
  check Alcotest.bool "bars drawn" true (String.exists (( = ) '#') c);
  let g =
    Chart.grouped ~title:"t" ~series_names:[ "m128"; "m512" ]
      [ ("k", [ 1.0; 2.0 ]) ]
  in
  check Alcotest.bool "grouped glyphs" true
    (String.exists (( = ) '#') g && String.exists (( = ) '=') g);
  check Alcotest.string "empty series" "t\n" (Chart.bars ~title:"t" [])

let suites =
  [
    ( "imap_fsm",
      [
        Alcotest.test_case "stage structure" `Quick fsm_stage_structure;
        Alcotest.test_case "reduction depth" `Quick fsm_reduction_depth;
        Alcotest.test_case "timing diagram" `Quick fsm_timing_diagram;
      ] );
    ( "schedule_view",
      [
        Alcotest.test_case "slots consistent" `Quick schedule_slots_consistent;
        Alcotest.test_case "gantt renders" `Quick schedule_gantt_renders;
      ] );
    ( "ablation",
      [
        Alcotest.test_case "variant semantics" `Quick ablation_variant_semantics;
        Alcotest.test_case "experiment smoke" `Slow ablation_experiment_smoke;
      ] );
    ( "export",
      [
        Alcotest.test_case "csv escaping" `Quick csv_escaping;
        Alcotest.test_case "summary csv" `Quick csv_summary;
        Alcotest.test_case "outcome to file" `Quick csv_outcome_and_file;
        Alcotest.test_case "chart rendering" `Quick chart_rendering;
      ] );
  ]
