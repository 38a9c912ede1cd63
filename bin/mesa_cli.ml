(* mesa_cli — inspect and run the MESA reproduction from the command line.

   Subcommands:
     list                     kernel registry
     disasm  <kernel>         disassemble a kernel
     dfg     <kernel>         show its LDFG (use --dot for Graphviz)
     map     <kernel>         map it and show the placement
     run     <kernel>         run under MESA and compare with CPU baselines
     bench   [experiment...]  regenerate the paper's tables/figures *)

open Cmdliner

let kernel_arg =
  let doc = "Benchmark kernel name (see `mesa_cli list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

(* Counts that must be at least 1, rejected while parsing arguments. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let grid_arg =
  let doc = "Accelerator configuration: 64, 128 or 512 PEs." in
  Arg.(value & opt positive_int 128 & info [ "grid" ] ~docv:"PES" ~doc)

let grid_of = function
  | 64 -> Grid.m64
  | 128 -> Grid.m128
  | 512 -> Grid.m512
  | n -> Grid.of_pe_count n

let find_kernel name =
  match Workloads.find name with
  | k -> Ok k
  | exception Not_found ->
    Error (`Msg (Printf.sprintf "unknown kernel %S; try `mesa_cli list`" name))

let ( let* ) = Result.bind

let open_text path =
  try Ok (open_out path) with Sys_error e -> Error (`Msg ("cannot write " ^ e))

let write_text path contents =
  let* oc = open_text path in
  try
    output_string oc contents;
    output_char oc '\n';
    close_out oc;
    Ok ()
  with Sys_error e -> Error (`Msg ("cannot write " ^ e))

(* Open the streaming output [path], if one was given. *)
let open_text_opt = function
  | None -> Ok None
  | Some path -> Result.map Option.some (open_text path)

(* Write [text] to [path] when one was given, and say so. *)
let dump_text what path text =
  match path with
  | None -> Ok ()
  | Some f ->
    Result.map (fun () -> Printf.printf "%s written to %s\n" what f) (write_text f text)

let dump what path json = dump_text what path (Json.to_string ~indent:2 json)

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents ->
    Result.map_error (fun e -> `Msg (path ^ ": " ^ e)) (Json.of_string contents)
  | exception Sys_error e -> Error (`Msg ("cannot read " ^ e))

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    let t =
      Tables.create
        [
          ("kernel", Tables.Left);
          ("description", Tables.Left);
          ("loop size", Tables.Right);
          ("iterations", Tables.Right);
          ("parallel", Tables.Left);
        ]
    in
    List.iter
      (fun (k : Kernel.t) ->
        let dfg = Runner.dfg_of_kernel k in
        Tables.add_row t
          [
            k.Kernel.name;
            k.Kernel.description;
            string_of_int (Dfg.node_count dfg);
            Tables.icell k.Kernel.n;
            (if k.Kernel.parallel then "omp" else "-");
          ])
      (Workloads.all ());
    Tables.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark kernels")
    Term.(const run $ const ())

(* ---------------- disasm ---------------- *)

let disasm_cmd =
  let run name =
    Result.map
      (fun (k : Kernel.t) -> print_string (Disasm.listing k.Kernel.program))
      (find_kernel name)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a kernel")
    Term.(term_result (const run $ kernel_arg))

(* ---------------- dfg ---------------- *)

let dfg_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of text.")
  in
  let run name dot =
    Result.map
      (fun k ->
        let dfg = Runner.dfg_of_kernel k in
        if dot then print_string (Dfg.to_dot dfg)
        else begin
          Format.printf "%a@." Dfg.pp dfg;
          let model = Perf_model.create dfg in
          Format.printf "static iteration latency: %.1f cycles@."
            (Perf_model.iteration_latency model);
          Format.printf "critical path: %s@."
            (String.concat " -> "
               (List.map string_of_int (Perf_model.critical_path model)))
        end)
      (find_kernel name)
  in
  Cmd.v (Cmd.info "dfg" ~doc:"Show a kernel's logical dataflow graph")
    Term.(term_result (const run $ kernel_arg $ dot))

(* ---------------- map ---------------- *)

let map_cmd =
  let run name pes =
    Result.bind (find_kernel name) (fun k ->
        let grid = grid_of pes in
        let dfg = Runner.dfg_of_kernel k in
        let model = Perf_model.create dfg in
        match Mapper.map ~grid ~kind:Interconnect.Mesh_noc model with
        | Error e -> Error (`Msg ("mapping failed: " ^ e))
        | Ok p ->
          Format.printf "%a@." Placement.pp p;
          Format.printf "modeled iteration latency: %.1f cycles@."
            (Perf_model.iteration_latency model);
          let mo = Mem_opt.analyze dfg in
          Format.printf
            "memory optimizations: %d forwarding pair(s), %d vector group(s), %d prefetched load(s)@."
            (List.length mo.Mem_opt.forwarding)
            (List.length mo.Mem_opt.vector_groups)
            (List.length mo.Mem_opt.prefetched);
          let ld =
            Loop_opt.decide ~grid ~dfg
              ~pragma:(Program.pragma_at k.Kernel.program dfg.Dfg.entry_addr)
          in
          Format.printf "loop optimizations: tiling x%d, pipelined %b@."
            ld.Loop_opt.tiling ld.Loop_opt.pipelined;
          Ok ())
  in
  Cmd.v (Cmd.info "map" ~doc:"Run Algorithm 1 and show the spatial placement")
    Term.(term_result (const run $ kernel_arg $ grid_arg))

(* ---------------- run ---------------- *)

let run_cmd =
  let no_opt =
    Arg.(value & flag & info [ "no-optimize" ] ~doc:"Disable MESA's optimizations.")
  in
  let no_iter =
    Arg.(value & flag & info [ "no-iterative" ] ~doc:"Disable runtime reoptimization.")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Dump the MESA run's full counter tree as JSON to $(docv).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the offload/region timeline to $(docv) in Chrome trace_event \
             format (load in chrome://tracing or Perfetto).")
  in
  let inject_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            "Arm a deterministic fault schedule: comma-separated \
             KIND@AT[:ROWxCOL] events where KIND is transient, permanent, \
             link, config or ports; AT is the fabric iteration (or \
             configuration-write ordinal for config) at which the event \
             fires; ROWxCOL pins the victim PE. Example: \
             'transient@100,permanent@300:2x5,config@1'.")
  in
  let fault_seed =
    Arg.(
      value
      & opt int 0x5EED
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:
            "PRNG seed for the fault injector's drawn victims and corruption \
             values; with --inject, the whole run is reproducible from SPEC \
             and $(docv) alone.")
  in
  let parse_inject fault_seed = function
    | None -> Ok None
    | Some s ->
      Result.map_error
        (fun e -> `Msg ("bad --inject spec: " ^ e))
        (Result.map Option.some (Fault.spec_of_string ~seed:fault_seed s))
  in
  let run name pes no_opt no_iter inject fault_seed stats_json trace_out =
    Result.bind (find_kernel name) (fun (k : Kernel.t) ->
        Result.bind (parse_inject fault_seed inject) (fun inject ->
        let grid = grid_of pes in
        let single = Runner.single_core k in
        let multi = Runner.multicore k in
        let mesa, report =
          Runner.mesa ~grid ~optimize:(not no_opt) ~iterative:(not no_iter)
            ?inject k
        in
        let t =
          Tables.create
            ~title:(Printf.sprintf "%s (%s)" k.Kernel.name k.Kernel.description)
            [
              ("configuration", Tables.Left);
              ("cycles", Tables.Right);
              ("speedup", Tables.Right);
              ("energy (uJ)", Tables.Right);
              ("outputs", Tables.Left);
            ]
        in
        let row (m : Runner.measurement) =
          Tables.add_row t
            [
              m.Runner.label;
              Tables.icell m.Runner.cycles;
              Tables.xcell (Runner.speedup ~baseline:single m);
              Tables.fcell (m.Runner.energy_nj /. 1000.0);
              (match m.Runner.checked with Ok () -> "ok" | Error e -> "FAIL: " ^ e);
            ]
        in
        row single;
        row multi;
        row mesa;
        Tables.print t;
        Printf.printf
          "\nMESA breakdown: cpu %d + accel %d + overhead %d cycles; %d offload(s); translation busy %d cycles\n"
          report.Controller.cpu_cycles report.Controller.accel_cycles
          report.Controller.overhead_cycles report.Controller.offloads
          report.Controller.mesa_busy_cycles;
        List.iter
          (fun (r : Controller.region_report) ->
            if r.Controller.accepted then begin
              Printf.printf
                "region 0x%x: %d instrs, tiling x%d, %d iterations on fabric, %d reconfiguration(s)\n"
                r.Controller.entry r.Controller.size r.Controller.tiling
                r.Controller.accel_iterations r.Controller.reconfigurations;
              if
                r.Controller.faults_detected > 0
                || r.Controller.reject_reason <> None
              then
                Printf.printf
                  "  faults: %d detected, %d retried, %d remap(s), %d quarantine(s)%s\n"
                  r.Controller.faults_detected r.Controller.fault_retries
                  r.Controller.fault_remaps r.Controller.quarantines
                  (match r.Controller.reject_reason with
                  | Some why -> "; aborted: " ^ why
                  | None -> "")
            end
            else
              Printf.printf "region 0x%x rejected: %s\n" r.Controller.entry
                (Option.value r.Controller.reject_reason ~default:"?"))
          report.Controller.regions;
        (if inject <> None then
           let g p =
             match Stats.find report.Controller.stats ("faults." ^ p) with
             | Some (Stats.VInt i) -> i
             | _ -> 0
           in
           Printf.printf
             "fault summary: %d injected, %d detected, %d retried, %d remapped, %d quarantined, %d config upset(s)\n"
             (g "injected") (g "detected") (g "retried") (g "remapped")
             (g "quarantined") (g "config_upsets"));
        Result.bind
          (dump "stats" stats_json (Stats.to_json report.Controller.stats))
          (fun () ->
            dump "trace" trace_out
              (Trace.to_chrome_json report.Controller.timeline))))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a kernel under MESA against the CPU baselines")
    Term.(
      term_result
        (const run $ kernel_arg $ grid_arg $ no_opt $ no_iter $ inject_arg
       $ fault_seed $ stats_json $ trace_out))

(* ---------------- profile ---------------- *)

let profile_cmd =
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the profile as diffable mesa-profile-v1 JSON to $(docv) \
             (feed two of these to `mesa_cli profile-diff`).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the full Perfetto timeline to $(docv): controller spans on \
             lane (0,0) plus one lane per PE / load-store entry / cache port.")
  in
  let no_opt =
    Arg.(value & flag & info [ "no-optimize" ] ~doc:"Disable MESA's optimizations.")
  in
  let no_iter =
    Arg.(value & flag & info [ "no-iterative" ] ~doc:"Disable runtime reoptimization.")
  in
  let run name pes no_opt no_iter json_out trace_out =
    Result.bind (find_kernel name) (fun (k : Kernel.t) ->
        let grid = grid_of pes in
        let _m, report =
          Runner.mesa ~grid ~optimize:(not no_opt) ~iterative:(not no_iter)
            ~profile:true k
        in
        match Profile.of_report ~kernel:k.Kernel.name report with
        | Error e -> Error (`Msg e)
        | Ok p ->
          print_string (Profile.render p);
          if not (Profile.closes p) then
            Error (`Msg "internal error: profile buckets do not close")
          else
            Result.bind (dump "profile" json_out (Profile.to_json p)) (fun () ->
                match trace_out with
                | None -> Ok ()
                | Some _ ->
                  let att = Option.get report.Controller.attribution in
                  dump "trace" trace_out
                    (Trace.to_chrome_json
                       (report.Controller.timeline @ Profile.timeline att))))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a kernel with cycle attribution: per-PE stall taxonomy, \
          utilization heatmaps, II decomposition and the dominant bottleneck")
    Term.(
      term_result
        (const run $ kernel_arg $ grid_arg $ no_opt $ no_iter $ json_out
       $ trace_out))

(* ---------------- profile-diff ---------------- *)

let profile_diff_cmd =
  let before_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BEFORE.json"
           ~doc:"Baseline profile (from `mesa_cli profile --json`).")
  in
  let after_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"AFTER.json"
           ~doc:"Candidate profile to gate.")
  in
  let max_regress =
    Arg.(
      value & opt float 5.0
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "Fail (non-zero exit) when any stall bucket or the attributed \
             cycle total grows by more than $(docv) percent.")
  in
  let tolerance =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string float) []
      & info [ "tolerance" ] ~docv:"BUCKET=PCT"
          ~doc:
            "Per-bucket override of --max-regress (repeatable), e.g. \
             --tolerance noc_stall=20.")
  in
  let run before after max_regress tolerances =
    let load path =
      let* j = read_json path in
      Result.map_error (fun e -> `Msg (path ^ ": " ^ e)) (Profile.of_json j)
    in
    let* b = load before in
    let* a = load after in
    if not (Profile.closes a) then
      Error (`Msg (after ^ ": profile buckets do not close"))
    else
      match Profile.diff ~tolerances ~max_regress b a with
      | [] ->
        Printf.printf "profile-diff: OK (no bucket grew past %.1f%%)\n" max_regress;
        Ok ()
      | vs ->
        print_string (Profile.render_violations vs);
        Error
          (`Msg
            (Printf.sprintf "%d profile regression(s) past the threshold"
               (List.length vs)))
  in
  Cmd.v
    (Cmd.info "profile-diff"
       ~doc:
         "Gate one profile JSON against another: non-zero exit when a stall \
          bucket regresses past the tolerance")
    Term.(
      term_result
        (const run $ before_arg $ after_arg $ max_regress $ tolerance))

(* ---------------- stats-diff ---------------- *)

let stats_diff_cmd =
  let before_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BEFORE.json"
           ~doc:"Baseline counter tree (from `mesa_cli run --stats-json`).")
  in
  let after_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"AFTER.json"
           ~doc:"Candidate counter tree to gate.")
  in
  let max_regress =
    Arg.(
      value & opt float 0.0
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "Fail (non-zero exit) when any gated counter grows by more than \
             $(docv) percent (default 0: any increase fails).")
  in
  let paths =
    Arg.(
      value & opt_all string []
      & info [ "path" ] ~docv:"PREFIX"
          ~doc:
            "Gate only counters whose dotted path starts with $(docv) \
             (repeatable); every changed counter is still printed. Default: \
             gate the cycle accounts \
             (controller.total_cycles/accel_cycles/overhead_cycles and \
             cpu.cycles).")
  in
  let run before after max_regress paths =
    let load path =
      let* j = read_json path in
      Result.map_error (fun e -> `Msg (path ^ ": " ^ e)) (Stats.of_json j)
    in
    let* b = load before in
    let* a = load after in
    let deltas = Stats.diff b a in
    let gated_prefixes =
      match paths with
      | [] ->
        [
          "controller.total_cycles"; "controller.accel_cycles";
          "controller.overhead_cycles"; "cpu.cycles";
        ]
      | ps -> ps
    in
    let gated (d : Stats.delta) =
      List.exists
        (fun p -> String.starts_with ~prefix:p d.Stats.path)
        gated_prefixes
    in
    List.iter
      (fun (d : Stats.delta) ->
        Printf.printf "  %c %-48s %.6g -> %.6g\n"
          (if gated d then '*' else ' ')
          d.Stats.path d.Stats.before d.Stats.after)
      deltas;
    let violations =
      List.filter
        (fun (d : Stats.delta) ->
          gated d
          && d.Stats.after
             > (d.Stats.before *. (1.0 +. (max_regress /. 100.0))) +. 1e-9)
        deltas
    in
    match violations with
    | [] ->
      Printf.printf "stats-diff: OK (%d changed counter(s), none gated past %.1f%%)\n"
        (List.length deltas) max_regress;
      Ok ()
    | vs ->
      List.iter
        (fun (d : Stats.delta) ->
          Printf.printf "REGRESSED %s: %.6g -> %.6g (limit +%.1f%%)\n"
            d.Stats.path d.Stats.before d.Stats.after max_regress)
        vs;
      Error
        (`Msg
          (Printf.sprintf "%d counter regression(s) past the threshold"
             (List.length vs)))
  in
  Cmd.v
    (Cmd.info "stats-diff"
       ~doc:
         "Gate one stats JSON against another: non-zero exit when a gated \
          counter regresses past the tolerance")
    Term.(term_result (const run $ before_arg $ after_arg $ max_regress $ paths))

(* ---------------- schedule ---------------- *)

let schedule_cmd =
  let run name pes =
    Result.bind (find_kernel name) (fun k ->
        let grid = grid_of pes in
        let dfg = Runner.dfg_of_kernel k in
        let model = Perf_model.create dfg in
        match Mapper.map ~grid ~kind:Interconnect.Mesh_noc model with
        | Error e -> Error (`Msg e)
        | Ok placement ->
          let slots = Schedule_view.compute model placement in
          print_string (Schedule_view.gantt dfg slots);
          Ok ())
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Show the one-iteration Gantt schedule of a mapped kernel")
    Term.(term_result (const run $ kernel_arg $ grid_arg))

(* ---------------- imap ---------------- *)

let imap_cmd =
  let run name =
    Result.map
      (fun k ->
        let dfg = Runner.dfg_of_kernel k in
        print_string (Imap_fsm.timing_diagram Mapper.default_config dfg);
        Printf.printf "total mapping cycles: %d\n"
          (Imap_fsm.cycles Mapper.default_config dfg))
      (find_kernel name)
  in
  Cmd.v
    (Cmd.info "imap" ~doc:"Show the Figure 8 instruction-mapping FSM timing diagram")
    Term.(term_result (const run $ kernel_arg))

(* ---------------- bench ---------------- *)

let bench_cmd =
  let names =
    Arg.(value & pos_all string []
         & info [] ~docv:"EXPERIMENT"
             ~doc:"fig11..fig16, table1, table2, ablation, dse, dse-guided, refine \
                   (default: the paper's eight)")
  in
  let run names =
    let print (f : Suite.experiment) =
      Tables.print (f ()).Experiments.table;
      print_newline ()
    in
    match names with
    | [] -> Ok (List.iter (fun (_, f) -> print f) Suite.paper)
    | ns ->
      List.fold_left
        (fun acc n ->
          Result.bind acc (fun () ->
              match List.assoc_opt n Suite.all with
              | Some f -> Ok (print f)
              | None -> Error (`Msg ("unknown experiment " ^ n))))
        (Ok ()) ns
  in
  Cmd.v (Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures")
    Term.(term_result (const run $ names))

(* ---------------- refine ---------------- *)

let refine_cmd =
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Tie-break seed for candidate ranking.")
  in
  let max_rounds =
    Arg.(
      value & opt int 8
      & info [ "max-rounds" ] ~docv:"N" ~doc:"Refinement rounds to attempt.")
  in
  let beam =
    Arg.(
      value & opt int 4
      & info [ "beam" ] ~docv:"N"
          ~doc:"Model-ranked candidates engine-confirmed per round.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the mesa-refine-v1 report (cycle counts, search counters).")
  in
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:
            "Write a mesa-profile-v1 JSON of the refined placement (feed to \
             `mesa_cli profile-diff` against --baseline-profile-out).")
  in
  let baseline_profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline-profile-out" ] ~docv:"FILE"
          ~doc:"Write a mesa-profile-v1 JSON of the unrefined placement.")
  in
  let run name pes seed max_rounds beam json_out profile_out baseline_profile_out
      =
    Result.bind (find_kernel name) (fun (k : Kernel.t) ->
        let grid = grid_of pes in
        match Refine.run ~seed ~max_rounds ~beam ~grid k with
        | Error e -> Error (`Msg e)
        | Ok r ->
          let gain =
            100.0
            *. float_of_int (r.Refine.baseline_cycles - r.Refine.refined_cycles)
            /. float_of_int (max 1 r.Refine.baseline_cycles)
          in
          Printf.printf
            "%s: baseline %d cycles -> refined %d cycles (%.1f%% better)\n"
            r.Refine.kernel r.Refine.baseline_cycles r.Refine.refined_cycles gain;
          Printf.printf
            "model: baseline %d, refined %d; %d round(s), %d proposed, %d \
             confirmed, %d accepted\n"
            r.Refine.model_baseline r.Refine.model_refined r.Refine.rounds
            r.Refine.proposed r.Refine.confirmed r.Refine.accepted;
          let dump_profile what path placement =
            match path with
            | None -> Ok ()
            | Some _ -> (
              match Refine.profile r placement with
              | Error e -> Error (`Msg (what ^ ": " ^ e))
              | Ok p -> dump what path (Profile.to_json p))
          in
          let* () = dump "report" json_out (Refine.report_to_json r) in
          let* () = dump_profile "profile" profile_out r.Refine.placement in
          dump_profile "baseline profile" baseline_profile_out r.Refine.baseline)
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:
         "Refine a kernel's placement with the analytical cost model: \
          model-ranked move/swap candidates, each accepted only after the \
          event engine confirms the predicted cycle win")
    Term.(
      term_result
        (const run $ kernel_arg $ grid_arg $ seed $ max_rounds $ beam $ json_out
       $ profile_out $ baseline_profile_out))

(* ---------------- dse ---------------- *)

let dse_cmd =
  let list_opt name ~docv ~doc default =
    Arg.(value & opt (some string) default & info [ name ] ~docv ~doc)
  in
  let kernels =
    list_opt "kernels" ~docv:"K1,K2,..."
      ~doc:"Comma-separated kernel subset (default nn,kmeans,bfs)." None
  in
  let grids =
    list_opt "grids" ~docv:"RxC,..."
      ~doc:"Grid geometries, e.g. 4x4,8x8,16x8 (default 4x4,8x4,8x8,16x8)." None
  in
  let ports =
    list_opt "ports" ~docv:"N,..." ~doc:"Cache-port counts (default 2,4,8)." None
  in
  let kinds =
    list_opt "kinds" ~docv:"KIND,..."
      ~doc:"Interconnect backends: mesh_noc, hier_rows, pure_mesh (default mesh_noc)."
      None
  in
  let l1 = list_opt "l1" ~docv:"KB,..." ~doc:"L1 capacities in KB (default 64)." None in
  let l2 =
    list_opt "l2" ~docv:"KB,..." ~doc:"L2 capacities in KB (default 8192)." None
  in
  let jobs =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Worker domains; the result is bit-identical for any value.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Rewrite $(docv) after every completed point (atomic rename).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restore completed points from --checkpoint before sweeping; the \
             final result is bit-identical to an uninterrupted run.")
  in
  let stop_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stop-after" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) fresh measurements (deterministic stand-in \
             for an interrupted sweep; pair with --checkpoint).")
  in
  let strategy_arg =
    Arg.(
      value
      & opt string "exhaustive"
      & info [ "strategy" ] ~docv:"S"
          ~doc:
            "Search strategy: $(b,exhaustive) measures every lattice point; \
             $(b,guided) calibrates the analytical cost model on one seed per \
             kernel, ranks the rest by the surrogate and measures \
             successively-halved batches until every unmeasured candidate is \
             dominated — at most half the lattice is ever measured.")
  in
  let defect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "defect" ] ~docv:"D"
          ~doc:
            "Inject a search defect (mutation testing): $(b,inverted-rank) \
             makes the guided surrogate rank candidates worst-first, which \
             must demonstrably miss the Pareto frontier.")
  in
  let frontier_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "frontier-out" ] ~docv:"FILE"
          ~doc:
            "Write the Pareto-frontier point labels, sorted, one per line — \
             plain-diffable against another run's frontier.")
  in
  let max_frac =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-frac" ] ~docv:"X"
          ~doc:
            "Fail (non-zero exit) when more than fraction $(docv) of the \
             exhaustive lattice was engine-measured — the guided-search \
             efficiency gate.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the result (spec, outcomes, frontier) as JSON to $(docv).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write per-point spans in Chrome trace_event format to $(docv).")
  in
  let top =
    Arg.(
      value
      & opt (some int) None
      & info [ "top" ] ~docv:"N" ~doc:"Show only the $(docv) best-ranked rows.")
  in
  let split s = String.split_on_char ',' s |> List.filter (fun x -> x <> "") in
  let parse_list what conv field s =
    match s with
    | None -> Ok field
    | Some s ->
      List.fold_left
        (fun acc tok ->
          Result.bind acc (fun xs ->
              match conv tok with
              | Ok v -> Ok (v :: xs)
              | Error e -> Error (`Msg (Printf.sprintf "bad %s %S: %s" what tok e))))
        (Ok []) (split s)
      |> Result.map List.rev
  in
  let int_tok t =
    match int_of_string_opt t with Some i -> Ok i | None -> Error "not an integer"
  in
  let grid_tok t =
    match String.index_opt t 'x' with
    | Some i -> (
      match
        ( int_of_string_opt (String.sub t 0 i),
          int_of_string_opt (String.sub t (i + 1) (String.length t - i - 1)) )
      with
      | Some r, Some c -> Ok (r, c)
      | _ -> Error "expected ROWSxCOLS")
    | None -> Error "expected ROWSxCOLS"
  in
  let run kernels grids ports kinds l1 l2 jobs checkpoint resume
      stop_after strategy defect frontier_out max_frac out trace_out top =
    let d = Dse.default_spec in
    let* kernels = parse_list "kernel" (fun t -> Ok t) d.Dse.kernels kernels in
    let* grids = parse_list "grid" grid_tok d.Dse.grids grids in
    let* ports = parse_list "port count" int_tok d.Dse.ports ports in
    let* kinds = parse_list "interconnect" Dse.kind_of_string d.Dse.kinds kinds in
    let* l1_kb = parse_list "L1 capacity" int_tok d.Dse.l1_kb l1 in
    let* l2_kb = parse_list "L2 capacity" int_tok d.Dse.l2_kb l2 in
    let* strategy =
      Result.map_error (fun e -> `Msg e) (Dse.strategy_of_string strategy)
    in
    let* defect =
      match defect with
      | None -> Ok None
      | Some "inverted-rank" -> Ok (Some Dse.Inverted_rank)
      | Some d -> Error (`Msg (Printf.sprintf "unknown defect %S (inverted-rank)" d))
    in
    let spec = { Dse.kernels; grids; ports; kinds; l1_kb; l2_kb } in
    match Dse.run ?jobs ?checkpoint ~resume ?stop_after ~strategy ?defect spec with
    | exception Sys_error e -> Error (`Msg ("cannot write checkpoint " ^ e))
    | Error e -> Error (`Msg e)
    | Ok r ->
      Tables.print (Dse.table ?top r);
      Printf.printf
        "\n%d point(s): %d measured fresh, %d restored, %d on the Pareto frontier%s\n"
        (List.length r.Dse.outcomes) r.Dse.evaluated r.Dse.restored
        (List.length r.Dse.front)
        (if r.Dse.complete then "" else " [interrupted by --stop-after]");
      Printf.printf "engine-measured %d of %d lattice point(s) (%.1f%%)\n"
        r.Dse.measured r.Dse.exhaustive_count
        (100.0 *. float_of_int r.Dse.measured
        /. float_of_int (max 1 r.Dse.exhaustive_count));
      List.iter
        (fun (o : Dse.outcome) ->
          Printf.printf "  frontier: %-40s perf %.3f it/kc, %.3f it/kc/W\n"
            (Dse.point_label o.Dse.point)
            o.Dse.perf o.Dse.perf_per_watt)
        r.Dse.front;
      let* () = dump "result" out (Dse.result_to_json r) in
      let* () = dump "trace" trace_out (Trace.to_chrome_json r.Dse.timeline) in
      let* () =
        List.map (fun (o : Dse.outcome) -> Dse.point_label o.Dse.point) r.Dse.front
        |> List.sort compare |> String.concat "\n"
        |> dump_text "frontier" frontier_out
      in
      (match max_frac with
      | Some x
        when float_of_int r.Dse.measured
             > x *. float_of_int r.Dse.exhaustive_count ->
        Error
          (`Msg
            (Printf.sprintf
               "measured %d of %d lattice points, exceeding --max-frac %g"
               r.Dse.measured r.Dse.exhaustive_count x))
      | _ -> Ok ())
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Explore the joint design space (grids, ports, interconnects, cache \
          sizes) with a deterministic, resumable sweep — exhaustively or \
          guided by the analytical cost model")
    Term.(
      term_result
        (const run $ kernels $ grids $ ports $ kinds $ l1 $ l2 $ jobs
       $ checkpoint $ resume $ stop_after $ strategy_arg $ defect_arg
       $ frontier_out $ max_frac $ out $ trace_out $ top))

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:"Master seed; the whole campaign is a pure function of it.")
  in
  let count =
    Arg.(
      value & opt int 500
      & info [ "count" ] ~docv:"N" ~doc:"Number of (program, fabric) cases.")
  in
  let jobs =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:"Worker domains; the summary is bit-identical for any value.")
  in
  let corpus =
    Arg.(
      value & opt string "fuzz-corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory for minimized failing-case JSON files.")
  in
  let max_shrink =
    Arg.(
      value & opt int 300
      & info [ "max-shrink" ] ~docv:"N"
          ~doc:"Re-execution budget for shrinking each failure.")
  in
  let defect =
    Arg.(
      value
      & opt (some string) None
      & info [ "defect" ] ~docv:"KIND"
          ~doc:
            "Arm a deliberate lowering bug (store-skew) to mutation-test the \
             fuzzer: the run must fail and shrink it.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run one corpus entry instead of a campaign.")
  in
  let run seed count jobs corpus max_shrink defect replay =
    let* defect =
      match defect with
      | None -> Ok None
      | Some s -> (
        match Tile_lower.defect_of_string s with
        | Ok d -> Ok (Some d)
        | Error e -> Error (`Msg e))
    in
    match replay with
    | Some path ->
      (* A missing or malformed corpus file is a usage error: one line on
         stderr and a non-zero exit, never a backtrace — and never
         confused with a genuine differential mismatch. *)
      let* text =
        match
          let ic = open_in path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | text -> Ok text
        | exception Sys_error e -> Error (`Msg ("cannot replay: " ^ e))
      in
      let* j =
        Result.map_error
          (fun e -> `Msg (path ^ ": not a corpus entry: " ^ e))
          (Json.of_string text)
      in
      let* () =
        match (Json.member "fabric" j, Json.member "shrunk" j, Json.member "spec" j) with
        | None, _, _ ->
          Error (`Msg (path ^ ": not a corpus entry: no \"fabric\" field"))
        | _, None, None ->
          Error (`Msg (path ^ ": not a corpus entry: no \"shrunk\" or \"spec\" field"))
        | _ -> Ok ()
      in
      (match Fuzz.replay ?defect j with
      | Ok o ->
        Printf.printf "replay ok: %d cycles, %d offload(s), checksum %d\n"
          o.Fuzz.cycles o.Fuzz.offloads o.Fuzz.mem_checksum;
        Ok ()
      | Error e ->
        Printf.printf "replay still fails: %s\n" e;
        exit 1)
    | None ->
      let s = Fuzz.run ?jobs ?defect ~max_shrink ~seed ~count () in
      Printf.printf
        "fuzz: seed %d, %d case(s), %d offloaded, %d offload(s) total, digest %016x\n"
        seed s.Fuzz.cases s.Fuzz.offloaded_cases s.Fuzz.total_offloads
        s.Fuzz.digest;
      if s.Fuzz.failures = [] then begin
        Printf.printf "no differential mismatches\n";
        Ok ()
      end
      else begin
        List.iter
          (fun (f : Fuzz.failure) ->
            let path = Fuzz.write_corpus ~dir:corpus ~master_seed:seed f in
            Printf.printf
              "FAIL case %d (kernel seed %d, %s): %s\n  shrunk to %d statement(s) in %d step(s): %s\n  corpus: %s\n"
              f.Fuzz.index f.Fuzz.kernel_seed
              (Fuzz.fabric_to_string f.Fuzz.fabric)
              f.Fuzz.detail
              (Tile_dsl.stmt_count f.Fuzz.shrunk)
              f.Fuzz.shrink_steps f.Fuzz.shrunk_detail path)
          s.Fuzz.failures;
        Printf.printf "%d failing case(s)\n" (List.length s.Fuzz.failures);
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the whole pipeline: random tile-DSL programs × \
          random fabrics, interpreter vs accelerator vs DSL reference, with \
          automatic shrinking of failures to a minimal corpus")
    Term.(
      term_result
        (const run $ seed $ count $ jobs $ corpus $ max_shrink $ defect $ replay))

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/mesad.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path of the daemon.")

let serve_cmd =
  let shards =
    Arg.(
      value
      & opt int Service.default_config.Service.shards
      & info [ "shards" ] ~docv:"N" ~doc:"Logical fabric instances.")
  in
  let shard_pes =
    Arg.(
      value
      & opt int Service.default_config.Service.shard_pes
      & info [ "shard-pes" ] ~docv:"PES" ~doc:"PEs per shard grid: 64, 128 or 512.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains executing requests.")
  in
  let queue_depth =
    Arg.(
      value
      & opt int Service.default_config.Service.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"In-flight requests admitted before shedding with overloaded.")
  in
  let max_retries =
    Arg.(
      value
      & opt int Service.default_config.Service.max_retries
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Service-level retry budget after a quarantining run.")
  in
  let breaker_threshold =
    Arg.(
      value
      & opt int Breaker.default_config.Breaker.trip_threshold
      & info [ "breaker-threshold" ] ~docv:"N"
          ~doc:"Consecutive shard faults before its circuit breaker opens.")
  in
  let breaker_cooldown =
    Arg.(
      value
      & opt int Breaker.default_config.Breaker.cooldown
      & info [ "breaker-cooldown" ] ~docv:"N"
          ~doc:
            "Admitted requests an open breaker waits before its half-open \
             probe (doubles on reopen).")
  in
  let default_deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline when the request carries none.")
  in
  let seed =
    Arg.(
      value
      & opt int Service.default_config.Service.seed
      & info [ "seed" ] ~docv:"S" ~doc:"Master seed for retry-backoff jitter.")
  in
  let no_warm =
    Arg.(
      value & flag
      & info [ "no-warm" ]
          ~doc:"Skip pre-translating the kernel registry at startup.")
  in
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-out" ] ~docv:"FILE"
          ~doc:
            "Write the stats snapshot as JSON: the final drained snapshot \
             on shutdown, and (with --profile-window) a fresh one on every \
             completed profiling window. Writes are atomic (tmp + rename), \
             so a concurrent reader always sees a complete snapshot.")
  in
  let profile_window =
    Arg.(
      value
      & opt (some int) None
      & info [ "profile-window" ] ~docv:"N"
          ~doc:
            "Profile every N-th clean run (pure observation; results stay \
             bit-identical) and feed the measured per-node oracles into a \
             background refine pass whose confirmed-faster placements are \
             swapped into the warm translation memo — subsequent requests \
             for that kernel can only get faster. Progress is counted in \
             the telemetry stats group.")
  in
  let run socket shards shard_pes jobs queue_depth max_retries
      breaker_threshold breaker_cooldown default_deadline seed no_warm
      stats_out profile_window =
    let cfg =
      {
        Service.default_config with
        Service.shards;
        shard_pes;
        jobs = Option.value jobs ~default:Service.default_config.Service.jobs;
        queue_depth;
        max_retries;
        breaker =
          {
            Breaker.default_config with
            Breaker.trip_threshold = breaker_threshold;
            cooldown = breaker_cooldown;
          };
        seed;
        default_deadline_ms = default_deadline;
        warm = not no_warm;
        profile_window;
      }
    in
    match Mesad.start ~service_config:cfg ~socket () with
    | exception Failure e -> Error (`Msg e)
    | exception Unix.Unix_error (err, _, _) ->
      Error (`Msg (socket ^ ": " ^ Unix.error_message err))
    | d ->
      (* Atomic snapshot flush: write beside the target, then rename, so a
         reader polling the file mid-run never sees a torn JSON object.
         One lock serializes window-hook flushes from concurrent workers
         against each other and against the final shutdown write. *)
      let flush_lock = Mutex.create () in
      let write_stats snap =
        Option.iter
          (fun path ->
            Mutex.lock flush_lock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock flush_lock)
              (fun () ->
                try
                  let tmp = path ^ ".tmp" in
                  let oc = open_out tmp in
                  output_string oc (Json.to_string (Stats.to_json snap));
                  output_char oc '\n';
                  close_out oc;
                  Sys.rename tmp path
                with Sys_error e ->
                  Printf.eprintf "mesad: stats flush failed: %s\n%!" e))
          stats_out
      in
      if profile_window <> None then
        Service.set_on_window (Mesad.service d) write_stats;
      let stop_requested = Atomic.make false in
      let request _ = Atomic.set stop_requested true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request);
      Sys.set_signal Sys.sigint (Sys.Signal_handle request);
      Printf.printf "mesad: serving on %s (%d shard(s) of %d PEs, %d worker(s))\n%!"
        socket cfg.Service.shards cfg.Service.shard_pes cfg.Service.jobs;
      while not (Atomic.get stop_requested) do
        Unix.sleepf 0.05
      done;
      Printf.printf "mesad: draining\n%!";
      let snap = Mesad.stop d in
      write_stats snap;
      Printf.printf "mesad: drained, %s request(s) served\n%!"
        (match Stats.find_int snap "service.admitted" with
        | Some n -> string_of_int n
        | None -> "?");
      Ok ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run mesad, the persistent offload daemon: line-delimited JSON over \
          a unix socket, with admission control, deadlines, seeded retry \
          backoff and per-shard fabric circuit breakers. SIGTERM drains \
          gracefully: in-flight requests finish and their responses are \
          flushed before the socket closes.")
    Term.(
      term_result
        (const run $ socket_arg $ shards $ shard_pes $ jobs $ queue_depth
       $ max_retries $ breaker_threshold $ breaker_cooldown
       $ default_deadline $ seed $ no_warm $ stats_out $ profile_window))

let loadgen_cmd =
  let requests =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.requests
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to send in total.")
  in
  let concurrency =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.concurrency
      & info [ "concurrency" ] ~docv:"N"
          ~doc:"Client lanes; one connection and one in-flight request each.")
  in
  let seed =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.seed
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Stream seed; the request mix is a pure function of it, and at \
             concurrency 1 the per-request digest is bit-identical across \
             runs.")
  in
  let kernels =
    Arg.(
      value
      & opt (list string) Loadgen.default_config.Loadgen.kernels
      & info [ "kernels" ] ~docv:"K1,K2,.."
          ~doc:"Kernel mix drawn uniformly per request.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Arm fault schedules on a seeded fraction of requests: \
             quarantines, breaker trips and recoveries under load.")
  in
  let chaos_rate =
    Arg.(
      value
      & opt float Loadgen.default_config.Loadgen.chaos_rate
      & info [ "chaos-rate" ] ~docv:"R" ~doc:"Fraction of requests carrying a fault.")
  in
  let injects =
    Arg.(
      value
      & opt_all string []
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            "Override the chaos fault-schedule pool (repeatable); default \
             mixes transient, permanent, link, ports and a quarantining \
             transient storm.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let no_fallback_rate =
    Arg.(
      value
      & opt float Loadgen.default_config.Loadgen.no_fallback_rate
      & info [ "no-fallback-rate" ] ~docv:"R"
          ~doc:"Chaos fraction of requests forbidding CPU fallback.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the result JSON to FILE.")
  in
  let require_zero_internal =
    Arg.(
      value & flag
      & info [ "require-zero-internal" ]
          ~doc:
            "Exit non-zero unless internal errors, protocol errors and \
             unanswered in-flight requests are all zero (CI gate).")
  in
  let require_recoveries =
    Arg.(
      value & flag
      & info [ "require-recoveries" ]
          ~doc:
            "Exit non-zero unless the daemon reports breaker trips and \
             half-open recloses, proving quarantine and recovery both \
             happened (CI chaos gate).")
  in
  let run socket requests concurrency seed kernels chaos chaos_rate injects
      deadline_ms no_fallback_rate out require_zero_internal
      require_recoveries =
    let cfg =
      {
        Loadgen.socket;
        requests;
        concurrency;
        seed;
        kernels;
        chaos;
        chaos_rate;
        injects =
          (if injects = [] then Loadgen.default_config.Loadgen.injects
           else injects);
        deadline_ms;
        no_fallback_rate;
      }
    in
    match Loadgen.run cfg with
    | exception Unix.Unix_error (err, _, _) ->
      Error (`Msg (socket ^ ": " ^ Unix.error_message err))
    | exception Invalid_argument e -> Error (`Msg e)
    | r ->
      let text = Json.to_string (Loadgen.result_to_json r) in
      print_endline text;
      let* () = Option.fold ~none:(Ok ()) ~some:(fun path -> write_text path text) out in
      let counter p = Option.value ~default:0 (Loadgen.find_service_counter r p) in
      let internal =
        Option.value ~default:0 (List.assoc_opt "internal" r.Loadgen.outcomes)
      in
      let failures =
        (if
           require_zero_internal
           && (internal > 0
              || r.Loadgen.protocol_errors > 0
              || r.Loadgen.closed_unanswered > 0)
         then
           [
             Printf.sprintf
               "gate: internal=%d protocol_errors=%d closed_unanswered=%d (all must be 0)"
               internal r.Loadgen.protocol_errors r.Loadgen.closed_unanswered;
           ]
         else [])
        @
        if
          require_recoveries
          && (counter "service.breaker.trips" = 0
             || counter "service.breaker.recloses" = 0)
        then
          [
            Printf.sprintf
              "gate: breaker trips=%d recloses=%d (both must be > 0)"
              (counter "service.breaker.trips")
              (counter "service.breaker.recloses");
          ]
        else []
      in
      List.iter prerr_endline failures;
      if failures = [] then Ok () else exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running mesad with a seeded stream of mixed-kernel offload \
          requests — optionally with chaos fault injection — and report \
          latency percentiles, throughput, the error-taxonomy histogram and \
          a determinism digest as JSON.")
    Term.(
      term_result
        (const run $ socket_arg $ requests $ concurrency $ seed $ kernels
       $ chaos $ chaos_rate $ injects $ deadline_ms $ no_fallback_rate $ out
       $ require_zero_internal $ require_recoveries))

(* ---------------- live telemetry clients ---------------- *)

let connect_daemon socket =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send_request oc req =
  output_string oc (Proto.request_to_line req);
  output_char oc '\n';
  flush oc

(* Consume a watch/trace stream: [on_body] handles each response body
   until [End_stream], connection close (a drain ends endless streams this
   way) or an error. Returns how many bodies were handled. *)
let stream_responses ic ~on_body =
  let rec loop n =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> Ok n
    | line -> (
      match Json.of_string line with
      | Error e -> Error ("unparseable response: " ^ e)
      | Ok j -> (
        match Proto.response_of_json j with
        | Error e -> Error ("bad response: " ^ e)
        | Ok { Proto.body = Proto.End_stream; _ } -> Ok n
        | Ok { Proto.body = Proto.Err e; _ } ->
          Error (Proto.error_kind_to_string e.Proto.kind ^ ": " ^ e.Proto.message)
        | Ok rsp -> (
          match on_body rsp.Proto.body with
          | Ok () -> loop (n + 1)
          | Error _ as err -> err)))
  in
  loop 0

let interval_ms_arg default =
  Arg.(
    value
    & opt float default
    & info [ "interval-ms" ] ~docv:"MS" ~doc:"Frame cadence in milliseconds.")

let watch_cmd =
  let frames =
    Arg.(
      value
      & opt (some int) None
      & info [ "frames" ] ~docv:"N"
          ~doc:"Stop after N frames; default: until the daemon drains.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Also append each frame line to FILE (flushed per frame) — the \
             input `mesa_cli telemetry-check` gates on.")
  in
  let run socket interval_ms frames out =
    let* out_oc = open_text_opt out in
    match connect_daemon socket with
    | exception Unix.Unix_error (err, _, _) ->
      Error (`Msg (socket ^ ": " ^ Unix.error_message err))
    | fd, ic, oc ->
      send_request oc
        (Proto.Watch (Proto.watch_request ~interval_ms ?frames ~id:1 ()));
      let emit text =
        print_string text;
        print_newline ();
        flush stdout;
        Option.iter
          (fun o ->
            output_string o text;
            output_char o '\n';
            flush o)
          out_oc
      in
      let r =
        stream_responses ic ~on_body:(function
          | Proto.Frame j ->
            emit (Json.to_string ~indent:0 j);
            Ok ()
          | _ -> Error "unexpected response in watch stream")
      in
      Option.iter close_out out_oc;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match r with
      | Ok n ->
        Printf.eprintf "watch: %d frame(s)\n%!" n;
        Ok ()
      | Error e -> Error (`Msg e))
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Subscribe to a running mesad's metrics stream and print one \
          mesa-telemetry-v1 frame (JSON, one line) per tick: per-outcome \
          latency quantiles over a sliding window, per-kernel cycle \
          quantiles with profiling/refine progress, and the raw counter \
          deltas and totals. An endless stream ends cleanly when the \
          daemon drains.")
    Term.(
      term_result
        (const run $ socket_arg $ interval_ms_arg 250.0 $ frames $ out))

let print_frame (f : Telemetry.frame) =
  Printf.printf "mesad telemetry — frame %d  t=%.0f ms  shed-ticks=%d\n"
    f.Telemetry.f_seq f.Telemetry.f_at_ms f.Telemetry.f_dropped;
  Printf.printf "%-22s %8s %6s | window %6s %9s %9s %9s\n" "outcome" "total"
    "delta" "n" "p50 ms" "p99 ms" "max ms";
  List.iter
    (fun (name, (r : Telemetry.outcome_row)) ->
      let q = r.Telemetry.o_window in
      Printf.printf "  %-20s %8d %6d | %13d %9.2f %9.2f %9.2f\n" name
        r.Telemetry.o_total r.Telemetry.o_delta q.Telemetry.q_count
        q.Telemetry.q_p50 q.Telemetry.q_p99 q.Telemetry.q_max)
    f.Telemetry.f_outcomes;
  if f.Telemetry.f_kernels <> [] then begin
    Printf.printf "%-22s | window %6s %11s %11s %9s %8s\n" "kernel" "n"
      "p50 cycles" "max cycles" "profiled" "refined";
    List.iter
      (fun (name, (k : Telemetry.kernel_row)) ->
        let q = k.Telemetry.k_window in
        Printf.printf "  %-20s | %13d %11.0f %11.0f %9d %8d\n" name
          q.Telemetry.q_count q.Telemetry.q_p50 q.Telemetry.q_max
          k.Telemetry.k_profile_windows k.Telemetry.k_refine_accepts)
      f.Telemetry.f_kernels
  end;
  print_string "totals:\n";
  List.iter
    (fun (path, v) -> Printf.printf "  %s %d\n" path v)
    f.Telemetry.f_totals;
  flush stdout

let top_cmd =
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Print a single frame and exit (greppable `path value` totals \
             — what the CI smoke test polls for refine acceptances).")
  in
  let run socket interval_ms once =
    match connect_daemon socket with
    | exception Unix.Unix_error (err, _, _) ->
      Error (`Msg (socket ^ ": " ^ Unix.error_message err))
    | fd, ic, oc ->
      let frames = if once then Some 1 else None in
      send_request oc
        (Proto.Watch (Proto.watch_request ~interval_ms ?frames ~id:1 ()));
      let r =
        stream_responses ic ~on_body:(function
          | Proto.Frame j -> (
            match Telemetry.frame_of_json j with
            | Error e -> Error ("bad frame: " ^ e)
            | Ok f ->
              if not once then print_string "\027[2J\027[H";
              print_frame f;
              Ok ())
          | _ -> Error "unexpected response in watch stream")
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match r with Ok _ -> Ok () | Error e -> Error (`Msg e))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal view of a running mesad: per-outcome latency and \
          per-kernel cycle quantiles over the daemon's sliding window, \
          refreshed in place every tick until interrupted (or once, with \
          $(b,--once)).")
    Term.(term_result (const run $ socket_arg $ interval_ms_arg 1000.0 $ once))

let trace_cmd =
  let spans =
    Arg.(
      value
      & opt (some int) None
      & info [ "spans" ] ~docv:"N"
          ~doc:"Stop after N spans; default: until the daemon drains.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the stream to FILE.")
  in
  let perfetto =
    Arg.(
      value & flag
      & info [ "perfetto" ]
          ~doc:
            "Emit one Chrome trace_event JSON document (load it in \
             ui.perfetto.dev; one thread lane per shard) instead of \
             line-delimited span JSON. Buffers until the stream ends.")
  in
  let run socket spans out perfetto =
    let* out_oc = if perfetto then Ok None else open_text_opt out in
    match connect_daemon socket with
    | exception Unix.Unix_error (err, _, _) ->
      Error (`Msg (socket ^ ": " ^ Unix.error_message err))
    | fd, ic, oc ->
      send_request oc (Proto.Trace (Proto.trace_request ?spans ~id:2 ()));
      let collected = ref [] in
      let r =
        stream_responses ic ~on_body:(function
          | Proto.Span j -> (
            match Telemetry.span_of_json j with
            | Error e -> Error ("bad span: " ^ e)
            | Ok sp ->
              if perfetto then collected := sp :: !collected
              else begin
                let text = Json.to_string ~indent:0 j in
                print_string text;
                print_newline ();
                flush stdout;
                Option.iter
                  (fun o ->
                    output_string o text;
                    output_char o '\n';
                    flush o)
                  out_oc
              end;
              Ok ())
          | _ -> Error "unexpected response in trace stream")
      in
      Option.iter close_out out_oc;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match r with
      | Error e -> Error (`Msg e)
      | Ok n when perfetto -> (
        let doc =
          Trace.to_string (List.rev_map Telemetry.to_trace_span !collected)
        in
        match out with
        | None -> Ok (print_endline doc)
        | Some path ->
          let* () = write_text path doc in
          Ok (Printf.eprintf "trace: %d span(s) -> %s\n%!" n path))
      | Ok n -> Ok (Printf.eprintf "trace: %d span(s)\n%!" n))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Subscribe to a running mesad's request-lifecycle span stream \
          (admit/queue/translate/execute/retry/breaker/resolve, plus the \
          profiling-window feedback loop's events) as line-delimited JSON, \
          or as a Perfetto-loadable Chrome trace with $(b,--perfetto). A \
          consumer slower than the daemon's bounded span ring skips \
          forward; delivered spans keep their order and sequence numbers.")
    Term.(term_result (const run $ socket_arg $ spans $ out $ perfetto))

let telemetry_check_cmd =
  let frames_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FRAMES"
          ~doc:"Line-delimited frame JSON from `mesa_cli watch --out`.")
  in
  let stats_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:
            "Final stats snapshot from `serve --stats-out`; the stream's \
             summed per-outcome deltas must close exactly against its \
             totals.")
  in
  let require_oracle =
    Arg.(
      value & flag
      & info [ "require-oracle-refresh" ]
          ~doc:
            "Exit non-zero unless at least one profiling window handed \
             measured oracles to the refiner.")
  in
  let require_refine =
    Arg.(
      value & flag
      & info [ "require-refine-accept" ]
          ~doc:
            "Exit non-zero unless at least one background refinement was \
             confirmed and swapped into the warm translation memo.")
  in
  let run frames_path stats_path require_oracle require_refine =
    let* lines =
      match In_channel.with_open_text frames_path In_channel.input_lines with
      | lines -> Ok (List.filter (fun l -> String.trim l <> "") lines)
      | exception Sys_error e -> Error (`Msg ("cannot read " ^ e))
    in
    let* stats =
      match stats_path with
      | None -> Ok None
      | Some path ->
        let* j = read_json path in
        Result.map Option.some
          (Result.map_error (fun e -> `Msg (path ^ ": " ^ e)) (Stats.of_json j))
    in
    let parsed =
      List.mapi
        (fun i line ->
          Result.map_error
            (Printf.sprintf "unparseable frame: line %d: %s" (i + 1))
            (Result.bind (Json.of_string line) Telemetry.frame_of_json))
        lines
    in
    let frames, unparsed =
      List.partition_map (function Ok f -> Either.Left f | Error e -> Either.Right e) parsed
    in
    let require =
      (if require_oracle then [ "telemetry.oracle_refreshes" ] else [])
      @ if require_refine then [ "telemetry.refine_accepts" ] else []
    in
    match (unparsed, Telemetry.check ?stats ~require frames) with
    | [], Ok () ->
      Printf.printf
        "telemetry-check: OK (%d frame(s), deltas close against totals%s)\n"
        (List.length frames)
        (if stats = None then "" else " and the stats snapshot");
      Ok ()
    | unparsed, r ->
      List.iter prerr_endline
        (unparsed @ match r with Ok () -> [] | Error fs -> fs);
      exit 1
  in
  Cmd.v
    (Cmd.info "telemetry-check"
       ~doc:
         "Validate a recorded watch stream: every frame parses, sequence \
          numbers are gap-free, the clock and shed counters are monotone, \
          and the per-outcome deltas summed over the stream close exactly \
          against the final totals (and, with $(b,--stats), against the \
          daemon's drained stats snapshot). Optional gates assert the \
          profiling-window feedback loop actually fired. The CI telemetry \
          smoke job runs this over the artifact it uploads.")
    Term.(
      term_result
        (const run $ frames_arg $ stats_arg $ require_oracle $ require_refine))

let () =
  let doc = "MESA: microarchitecture extensions for spatial architecture generation" in
  let info = Cmd.info "mesa_cli" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; disasm_cmd; dfg_cmd; map_cmd; schedule_cmd; imap_cmd; run_cmd; profile_cmd; profile_diff_cmd; stats_diff_cmd; bench_cmd; refine_cmd; dse_cmd; fuzz_cmd; serve_cmd; loadgen_cmd; watch_cmd; top_cmd; trace_cmd; telemetry_check_cmd ]))
