(* mesa_cli — inspect and run the MESA reproduction from the command line.

   Every subcommand parses its flags and calls the library: the kernel
   inspectors (list, disasm, dfg, map, schedule, imap), the MESA runs and
   their gates (run, profile, profile-diff, stats-diff, refine, dse, fuzz)
   and the mesad daemon with its clients (serve, loadgen, watch, top,
   trace, telemetry-check). The paper's tables and figures come from
   `dune exec bench/main.exe -- [experiment...]`. *)

open Cmdliner

let ( let* ) = Result.bind
let msg r = Result.map_error (fun e -> `Msg e) r

(* ---------------- shared flags and file helpers ---------------- *)

let opt_arg c default name ~docv ~doc = Arg.(value & opt c default & info [ name ] ~docv ~doc)
let flag_arg name ~doc = Arg.(value & flag & info [ name ] ~doc)
let out_arg name ~doc = opt_arg Arg.(some string) None name ~docv:"FILE" ~doc

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
  opt_arg positive_int 128 "grid" ~docv:"PES"
    ~doc:"Accelerator configuration: 64, 128 or 512 PEs."

let grid_of = function
  | 64 -> Grid.m64
  | 128 -> Grid.m128
  | 512 -> Grid.m512
  | n -> Grid.of_pe_count n

let no_opt_arg = flag_arg "no-optimize" ~doc:"Disable MESA's optimizations."
let no_iter_arg = flag_arg "no-iterative" ~doc:"Disable runtime reoptimization."

let find_kernel name =
  match Workloads.find name with
  | k -> Ok k
  | exception Not_found ->
    Error (`Msg (Printf.sprintf "unknown kernel %S; try `mesa_cli list`" name))

let writing f = try Ok (f ()) with Sys_error e -> Error ("cannot write " ^ e)

let write_text path text =
  writing (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc text;
          output_char oc '\n'))

(* A plain write, not [Json.write_file]: outputs may be named /dev/stdout. *)
let write_json path json = write_text path (Json.to_string ~indent:2 json)

(* Run [write] on [path] when one was given, and say so. *)
let save what path write =
  match path with
  | None -> Ok ()
  | Some f -> msg (Result.map (fun () -> Printf.printf "%s written to %s\n" what f) (write f))

let dump what path json = save what path (fun f -> write_json f json)

(* Read [path] as JSON and decode it with [of_json]. *)
let load of_json path =
  msg
    (Result.bind (Json.read_file path) (fun j ->
         Result.map_error (fun e -> path ^ ": " ^ e) (of_json j)))

(* ---------------- kernel inspectors ---------------- *)

let list_cmd =
  let run () =
    let t =
      Tables.create
        [ ("kernel", Tables.Left); ("description", Tables.Left); ("loop size", Tables.Right);
          ("iterations", Tables.Right); ("parallel", Tables.Left) ]
    in
    List.iter
      (fun (k : Kernel.t) ->
        Tables.add_row t
          [ k.Kernel.name; k.Kernel.description;
            string_of_int (Dfg.node_count (Runner.dfg_of_kernel k));
            Tables.icell k.Kernel.n; (if k.Kernel.parallel then "omp" else "-") ])
      (Workloads.all ());
    Tables.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark kernels") Term.(const run $ const ())

let disasm_cmd =
  let run name =
    let* k = find_kernel name in
    Ok (print_string (Disasm.listing k.Kernel.program))
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble a kernel") Term.(term_result (const run $ kernel_arg))

let dfg_cmd =
  let dot = flag_arg "dot" ~doc:"Emit Graphviz instead of text." in
  let run name dot =
    let* k = find_kernel name in
    let dfg = Runner.dfg_of_kernel k in
    if dot then print_string (Dfg.to_dot dfg)
    else begin
      Format.printf "%a@." Dfg.pp dfg;
      let model = Perf_model.create dfg in
      Format.printf "static iteration latency: %.1f cycles@."
        (Perf_model.iteration_latency model);
      Format.printf "critical path: %s@."
        (String.concat " -> " (List.map string_of_int (Perf_model.critical_path model)))
    end;
    Ok ()
  in
  Cmd.v (Cmd.info "dfg" ~doc:"Show a kernel's logical dataflow graph")
    Term.(term_result (const run $ kernel_arg $ dot))

let map_cmd =
  let run name pes =
    let* k = find_kernel name in
    let grid = grid_of pes in
    let* p = msg (Result.map_error (( ^ ) "mapping failed: ") (Runner.placement_of ~grid k)) in
    let dfg = Runner.dfg_of_kernel k in
    Format.printf "%a@." Placement.pp p;
    let model = Perf_model.create dfg in
    Placement.seed_transfers p model;
    Format.printf "modeled iteration latency: %.1f cycles@." (Perf_model.iteration_latency model);
    let mo = Mem_opt.analyze dfg in
    Format.printf
      "memory optimizations: %d forwarding pair(s), %d vector group(s), %d prefetched load(s)@."
      (List.length mo.Mem_opt.forwarding) (List.length mo.Mem_opt.vector_groups)
      (List.length mo.Mem_opt.prefetched);
    let tiling =
      Loop_opt.tiling ~grid ~dfg ~pragma:(Program.pragma_at k.Kernel.program dfg.Dfg.entry_addr)
    in
    Format.printf "loop optimizations: tiling x%d, pipelined true@." tiling;
    Ok ()
  in
  Cmd.v (Cmd.info "map" ~doc:"Run Algorithm 1 and show the spatial placement")
    Term.(term_result (const run $ kernel_arg $ grid_arg))

let schedule_cmd =
  let run name pes =
    let* k = find_kernel name in
    let* p = msg (Runner.placement_of ~grid:(grid_of pes) k) in
    let dfg = Runner.dfg_of_kernel k in
    Ok (print_string (Schedule_view.gantt dfg (Schedule_view.compute (Perf_model.create dfg) p)))
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Show the one-iteration Gantt schedule of a mapped kernel")
    Term.(term_result (const run $ kernel_arg $ grid_arg))

let imap_cmd =
  let run name =
    let* k = find_kernel name in
    let dfg = Runner.dfg_of_kernel k in
    print_string (Imap_fsm.timing_diagram dfg);
    Ok (Printf.printf "total mapping cycles: %d\n" (Imap_fsm.cycles dfg))
  in
  Cmd.v
    (Cmd.info "imap" ~doc:"Show the Figure 8 instruction-mapping FSM timing diagram")
    Term.(term_result (const run $ kernel_arg))

(* ---------------- run, profile and their gates ---------------- *)

let run_cmd =
  let stats_json =
    out_arg "stats-json" ~doc:"Dump the MESA run's full counter tree as JSON to $(docv)."
  in
  let trace_out =
    out_arg "trace"
      ~doc:
        "Write the offload/region timeline to $(docv) in Chrome trace_event \
         format (load in chrome://tracing or Perfetto)."
  in
  let inject_arg =
    opt_arg Arg.(some string) None "inject" ~docv:"SPEC"
      ~doc:
        "Arm a deterministic fault schedule: comma-separated \
         KIND@AT[:ROWxCOL] events where KIND is transient, permanent, \
         link, config or ports; AT is the fabric iteration (or \
         configuration-write ordinal for config) at which the event \
         fires; ROWxCOL pins the victim PE. Example: \
         'transient@100,permanent@300:2x5,config@1'."
  in
  let fault_seed =
    opt_arg Arg.int 0x5EED "fault-seed" ~docv:"N"
      ~doc:
        "PRNG seed for the fault injector's drawn victims and corruption \
         values; with --inject, the whole run is reproducible from SPEC \
         and $(docv) alone."
  in
  let run name pes no_opt no_iter inject fault_seed stats_json trace_out =
    let* k = find_kernel name in
    let* inject =
      match inject with
      | None -> Ok None
      | Some s ->
        msg
          (Result.map_error (( ^ ) "bad --inject spec: ")
             (Result.map Option.some (Fault.spec_of_string ~seed:fault_seed s)))
    in
    let single = Runner.single_core k in
    let multi = Runner.multicore k in
    let mesa, report =
      Runner.mesa ~grid:(grid_of pes) ~optimize:(not no_opt) ~iterative:(not no_iter) ?inject k
    in
    Tables.print (Runner.comparison_table k [ single; multi; mesa ]);
    print_newline ();
    print_string (Controller.render ~faults:(inject <> None) report);
    let* () = dump "stats" stats_json (Stats.to_json report.Controller.stats) in
    dump "trace" trace_out (Trace.to_chrome_json report.Controller.timeline)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a kernel under MESA against the CPU baselines")
    Term.(
      term_result
        (const run $ kernel_arg $ grid_arg $ no_opt_arg $ no_iter_arg $ inject_arg
       $ fault_seed $ stats_json $ trace_out))

let profile_cmd =
  let json_out =
    out_arg "json"
      ~doc:
        "Write the profile as diffable mesa-profile-v1 JSON to $(docv) \
         (feed two of these to `mesa_cli profile-diff`)."
  in
  let trace_out =
    out_arg "trace"
      ~doc:
        "Write the full Perfetto timeline to $(docv): controller spans on \
         lane (0,0) plus one lane per PE / load-store entry / cache port."
  in
  let run name pes no_opt no_iter json_out trace_out =
    let* k = find_kernel name in
    let _, report =
      Runner.mesa ~grid:(grid_of pes) ~optimize:(not no_opt) ~iterative:(not no_iter)
        ~profile:true k
    in
    let* p = msg (Profile.of_report ~kernel:k.Kernel.name report) in
    print_string (Profile.render p);
    if not (Profile.closes p) then Error (`Msg "internal error: profile buckets do not close")
    else
      let* () = dump "profile" json_out (Profile.to_json p) in
      save "trace" trace_out (fun f ->
          let att = Option.get report.Controller.attribution in
          write_json f (Trace.to_chrome_json (report.Controller.timeline @ Profile.timeline att)))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a kernel with cycle attribution: per-PE stall taxonomy, \
          utilization heatmaps, II decomposition and the dominant bottleneck")
    Term.(
      term_result
        (const run $ kernel_arg $ grid_arg $ no_opt_arg $ no_iter_arg $ json_out $ trace_out))

let before_after ~before ~after =
  ( Arg.(required & pos 0 (some file) None & info [] ~docv:"BEFORE.json" ~doc:before),
    Arg.(required & pos 1 (some file) None & info [] ~docv:"AFTER.json" ~doc:after) )

let regressions what vs =
  Error (`Msg (Printf.sprintf "%d %s regression(s) past the threshold" (List.length vs) what))

let profile_diff_cmd =
  let before_arg, after_arg =
    before_after ~before:"Baseline profile (from `mesa_cli profile --json`)."
      ~after:"Candidate profile to gate."
  in
  let max_regress =
    opt_arg Arg.float 5.0 "max-regress" ~docv:"PCT"
      ~doc:
        "Fail (non-zero exit) when any stall bucket or the attributed \
         cycle total grows by more than $(docv) percent."
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
    let* b = load Profile.of_json before in
    let* a = load Profile.of_json after in
    if not (Profile.closes a) then Error (`Msg (after ^ ": profile buckets do not close"))
    else
      match Profile.diff ~tolerances ~max_regress b a with
      | [] -> Ok (Printf.printf "profile-diff: OK (no bucket grew past %.1f%%)\n" max_regress)
      | vs ->
        print_string (Profile.render_violations vs);
        regressions "profile" vs
  in
  Cmd.v
    (Cmd.info "profile-diff"
       ~doc:
         "Gate one profile JSON against another: non-zero exit when a stall \
          bucket regresses past the tolerance")
    Term.(term_result (const run $ before_arg $ after_arg $ max_regress $ tolerance))

let stats_diff_cmd =
  let before_arg, after_arg =
    before_after ~before:"Baseline counter tree (from `mesa_cli run --stats-json`)."
      ~after:"Candidate counter tree to gate."
  in
  let max_regress =
    opt_arg Arg.float 0.0 "max-regress" ~docv:"PCT"
      ~doc:
        "Fail (non-zero exit) when any gated counter grows by more than \
         $(docv) percent (default 0: any increase fails)."
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
  let run before after max_regress prefixes =
    let* b = load Stats.of_json before in
    let* a = load Stats.of_json after in
    let g = Stats.gate ~prefixes ~max_regress b a in
    print_string (Stats.render_gate g);
    if g.Stats.violations = [] then Ok () else regressions "counter" g.Stats.violations
  in
  Cmd.v
    (Cmd.info "stats-diff"
       ~doc:
         "Gate one stats JSON against another: non-zero exit when a gated \
          counter regresses past the tolerance")
    Term.(term_result (const run $ before_arg $ after_arg $ max_regress $ paths))

(* ---------------- refine, dse, fuzz ---------------- *)

let refine_cmd =
  let seed = opt_arg Arg.int 0 "seed" ~docv:"N" ~doc:"Tie-break seed for candidate ranking." in
  let max_rounds = opt_arg Arg.int 8 "max-rounds" ~docv:"N" ~doc:"Refinement rounds to attempt." in
  let beam =
    opt_arg Arg.int 4 "beam" ~docv:"N" ~doc:"Model-ranked candidates engine-confirmed per round."
  in
  let json_out =
    out_arg "json" ~doc:"Write the mesa-refine-v1 report (cycle counts, search counters)."
  in
  let profile_out =
    out_arg "profile-out"
      ~doc:
        "Write a mesa-profile-v1 JSON of the refined placement (feed to \
         `mesa_cli profile-diff` against --baseline-profile-out)."
  in
  let baseline_profile_out =
    out_arg "baseline-profile-out" ~doc:"Write a mesa-profile-v1 JSON of the unrefined placement."
  in
  let run name pes seed max_rounds beam json_out profile_out baseline_profile_out =
    let* k = find_kernel name in
    let* r = msg (Refine.run ~seed ~max_rounds ~beam ~grid:(grid_of pes) k) in
    print_string (Refine.render r);
    let dump_profile what path placement =
      if path = None then Ok ()
      else
        let* p = msg (Result.map_error (( ^ ) (what ^ ": ")) (Refine.profile r placement)) in
        dump what path (Profile.to_json p)
    in
    let* () = dump "report" json_out (Refine.report_to_json r) in
    let* () = dump_profile "profile" profile_out r.Refine.placement in
    dump_profile "baseline profile" baseline_profile_out r.Refine.baseline
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

let dse_cmd =
  let spec =
    let d = Dse.default_spec in
    let axis c = opt_arg (Arg.list c) in
    let kernels =
      axis Arg.string d.Dse.kernels "kernels" ~docv:"K1,K2,..."
        ~doc:"Comma-separated kernel subset."
    in
    let grids =
      axis Arg.(pair ~sep:'x' int int) d.Dse.grids "grids" ~docv:"RxC,..."
        ~doc:"Grid geometries, e.g. 4x4,8x8,16x8."
    in
    let ports = axis Arg.int d.Dse.ports "ports" ~docv:"N,..." ~doc:"Cache-port counts." in
    let kinds =
      axis (Arg.enum Dse.kinds) d.Dse.kinds "kinds" ~docv:"KIND,..."
        ~doc:"Interconnect backends: mesh_noc, hier_rows, pure_mesh."
    in
    let l1 = axis Arg.int d.Dse.l1_kb "l1" ~docv:"KB,..." ~doc:"L1 capacities in KB." in
    let l2 = axis Arg.int d.Dse.l2_kb "l2" ~docv:"KB,..." ~doc:"L2 capacities in KB." in
    let make kernels grids ports kinds l1_kb l2_kb =
      { Dse.kernels; grids; ports; kinds; l1_kb; l2_kb }
    in
    Term.(const make $ kernels $ grids $ ports $ kinds $ l1 $ l2)
  in
  let jobs =
    opt_arg Arg.(some positive_int) None "jobs" ~docv:"N"
      ~doc:"Worker domains; the result is bit-identical for any value."
  in
  let checkpoint =
    opt_arg Arg.(some string) None "checkpoint" ~docv:"FILE"
      ~doc:"Rewrite $(docv) after every completed point (atomic rename)."
  in
  let resume =
    flag_arg "resume"
      ~doc:
        "Restore completed points from --checkpoint before sweeping; the \
         final result is bit-identical to an uninterrupted run."
  in
  let stop_after =
    opt_arg Arg.(some int) None "stop-after" ~docv:"N"
      ~doc:
        "Stop after $(docv) fresh measurements (deterministic stand-in \
         for an interrupted sweep; pair with --checkpoint)."
  in
  let strategy =
    opt_arg (Arg.enum Dse.strategies) Dse.Exhaustive "strategy" ~docv:"S"
      ~doc:
        "Search strategy: $(b,exhaustive) measures every lattice point; \
         $(b,guided) calibrates the analytical cost model on one seed per \
         kernel, ranks the rest by the surrogate and measures \
         successively-halved batches until every unmeasured candidate is \
         dominated — at most half the lattice is ever measured."
  in
  let defect =
    opt_arg Arg.(some (enum Dse.defects)) None "defect" ~docv:"D"
      ~doc:
        "Inject a search defect (mutation testing): $(b,inverted-rank) \
         makes the guided surrogate rank candidates worst-first, which \
         must demonstrably miss the Pareto frontier."
  in
  let frontier_out =
    out_arg "frontier-out"
      ~doc:
        "Write the Pareto-frontier point labels, sorted, one per line — \
         plain-diffable against another run's frontier."
  in
  let max_frac =
    opt_arg Arg.(some float) None "max-frac" ~docv:"X"
      ~doc:
        "Fail (non-zero exit) when more than fraction $(docv) of the \
         exhaustive lattice was engine-measured — the guided-search \
         efficiency gate."
  in
  let out = out_arg "out" ~doc:"Write the result (spec, outcomes, frontier) as JSON to $(docv)." in
  let trace_out =
    out_arg "trace" ~doc:"Write per-point spans in Chrome trace_event format to $(docv)."
  in
  let top =
    opt_arg Arg.(some int) None "top" ~docv:"N" ~doc:"Show only the $(docv) best-ranked rows."
  in
  let run spec jobs checkpoint resume stop_after strategy defect frontier_out max_frac out
      trace_out top =
    match Dse.run ?jobs ?checkpoint ~resume ?stop_after ~strategy ?defect spec with
    | exception Sys_error e -> Error (`Msg ("cannot write checkpoint " ^ e))
    | Error e -> Error (`Msg e)
    | Ok r ->
      print_string (Dse.render ?top r);
      let* () = dump "result" out (Dse.result_to_json r) in
      let* () = dump "trace" trace_out (Trace.to_chrome_json r.Dse.timeline) in
      let* () =
        save "frontier" frontier_out (fun f ->
            write_text f (String.concat "\n" (Dse.frontier_labels r)))
      in
      msg (Option.fold ~none:(Ok ()) ~some:(fun x -> Dse.check_max_frac x r) max_frac)
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Explore the joint design space (grids, ports, interconnects, cache \
          sizes) with a deterministic, resumable sweep — exhaustively or \
          guided by the analytical cost model")
    Term.(
      term_result
        (const run $ spec $ jobs $ checkpoint $ resume $ stop_after $ strategy $ defect
       $ frontier_out $ max_frac $ out $ trace_out $ top))

let fuzz_cmd =
  let seed =
    opt_arg Arg.int 1 "seed" ~docv:"S"
      ~doc:"Master seed; the whole campaign is a pure function of it."
  in
  let count =
    opt_arg positive_int 500 "count" ~docv:"N" ~doc:"Number of (program, fabric) cases."
  in
  let jobs =
    opt_arg Arg.(some positive_int) None "jobs" ~docv:"N"
      ~doc:"Worker domains; the summary is bit-identical for any value."
  in
  let corpus =
    opt_arg Arg.string "fuzz-corpus" "corpus" ~docv:"DIR"
      ~doc:"Directory for minimized failing-case JSON files."
  in
  let max_shrink =
    opt_arg Arg.int 300 "max-shrink" ~docv:"N"
      ~doc:"Re-execution budget for shrinking each failure."
  in
  let defect =
    let store_skew = Tile_lower.Store_skew in
    opt_arg
      Arg.(some (enum [ (Tile_lower.defect_to_string store_skew, store_skew) ]))
      None "defect" ~docv:"KIND"
      ~doc:
        "Arm a deliberate lowering bug (store-skew) to mutation-test the \
         fuzzer: the run must fail and shrink it."
  in
  let replay =
    opt_arg Arg.(some string) None "replay" ~docv:"FILE"
      ~doc:"Re-run one corpus entry instead of a campaign."
  in
  (* A missing or malformed corpus file is a usage error: one line on
     stderr and a non-zero exit, never confused with a replay that still
     fails, which exits 1. *)
  let replay_entry ?defect path =
    let* j = msg (Json.read_file path) in
    match Fuzz.replay ?defect j with
    | Ok o ->
      Ok
        (Printf.printf "replay ok: %d cycles, %d offload(s), checksum %d\n" o.Fuzz.cycles
           o.Fuzz.offloads o.Fuzz.mem_checksum)
    | Error (Fuzz.Malformed e) -> Error (`Msg (path ^ ": not a corpus entry: " ^ e))
    | Error (Fuzz.Still_fails e) ->
      Printf.printf "replay still fails: %s\n" e;
      exit 1
  in
  let run seed count jobs corpus max_shrink defect replay =
    match replay with
    | Some path -> replay_entry ?defect path
    | None ->
      let s = Fuzz.run ?jobs ?defect ~max_shrink ~seed ~count () in
      print_string (Fuzz.report ~corpus ~seed s);
      if s.Fuzz.failures <> [] then exit 1;
      Ok ()
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

(* ---------------- mesad and its clients ---------------- *)

let socket_arg =
  opt_arg Arg.string "/tmp/mesad.sock" "socket" ~docv:"PATH" ~doc:"Unix socket path of the daemon."

let unix_error socket err = `Msg (socket ^ ": " ^ Unix.error_message err)

let serve_cmd =
  let dc = Service.default_config in
  let shards =
    opt_arg positive_int dc.Service.shards "shards" ~docv:"N" ~doc:"Logical fabric instances."
  in
  let shard_pes =
    opt_arg Arg.int dc.Service.shard_pes "shard-pes" ~docv:"PES"
      ~doc:"PEs per shard grid: 64, 128 or 512."
  in
  let jobs =
    opt_arg Arg.(some positive_int) None "jobs" ~docv:"N" ~doc:"Worker domains executing requests."
  in
  let queue_depth =
    opt_arg positive_int dc.Service.queue_depth "queue-depth" ~docv:"N"
      ~doc:"In-flight requests admitted before shedding with overloaded."
  in
  let max_retries =
    opt_arg Arg.int dc.Service.max_retries "max-retries" ~docv:"N"
      ~doc:"Service-level retry budget after a quarantining run."
  in
  let breaker_threshold =
    opt_arg Arg.int Breaker.default_config.Breaker.trip_threshold "breaker-threshold" ~docv:"N"
      ~doc:"Consecutive shard faults before its circuit breaker opens."
  in
  let breaker_cooldown =
    opt_arg Arg.int Breaker.default_config.Breaker.cooldown "breaker-cooldown" ~docv:"N"
      ~doc:
        "Admitted requests an open breaker waits before its half-open \
         probe (doubles on reopen)."
  in
  let default_deadline =
    opt_arg Arg.(some float) None "deadline-ms" ~docv:"MS"
      ~doc:"Default per-request deadline when the request carries none."
  in
  let seed =
    opt_arg Arg.int dc.Service.seed "seed" ~docv:"S" ~doc:"Master seed for retry-backoff jitter."
  in
  let no_warm = flag_arg "no-warm" ~doc:"Skip pre-translating the kernel registry at startup." in
  let stats_out =
    out_arg "stats-out"
      ~doc:
        "Write the stats snapshot as JSON: the final drained snapshot \
         on shutdown, and (with --profile-window) a fresh one on every \
         completed profiling window. Writes are atomic (tmp + rename), \
         so a concurrent reader always sees a complete snapshot."
  in
  let profile_window =
    opt_arg Arg.(some positive_int) None "profile-window" ~docv:"N"
      ~doc:
        "Profile every N-th clean run (pure observation; results stay \
         bit-identical) and feed the measured per-node oracles into a \
         background refine pass. A confirmed-faster placement becomes \
         the service's override for that kernel, which the controller's \
         tune hook forces into every later translation (the warm \
         translation memo is left untouched), so subsequent requests \
         for that kernel can only get faster. Progress is counted in \
         the telemetry stats group."
  in
  let run socket shards shard_pes jobs queue_depth max_retries trip_threshold cooldown
      default_deadline_ms seed no_warm stats_out profile_window =
    let service_config =
      {
        dc with
        Service.shards;
        shard_pes;
        jobs = Option.value jobs ~default:dc.Service.jobs;
        queue_depth;
        max_retries;
        breaker = { Breaker.default_config with Breaker.trip_threshold; cooldown };
        seed;
        default_deadline_ms;
        warm = not no_warm;
        profile_window;
      }
    in
    match Mesad.serve ~service_config ?stats_out ~socket () with
    | () -> Ok ()
    | exception (Failure e | Invalid_argument e) -> Error (`Msg e)
    | exception Unix.Unix_error (err, _, _) -> Error (unix_error socket err)
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
  let dc = Loadgen.default_config in
  let requests =
    opt_arg Arg.int dc.Loadgen.requests "requests" ~docv:"N" ~doc:"Requests to send in total."
  in
  let concurrency =
    opt_arg Arg.int dc.Loadgen.concurrency "concurrency" ~docv:"N"
      ~doc:"Client lanes; one connection and one in-flight request each."
  in
  let seed =
    opt_arg Arg.int dc.Loadgen.seed "seed" ~docv:"S"
      ~doc:
        "Stream seed; the request mix is a pure function of it, and at \
         concurrency 1 the per-request digest is bit-identical across \
         runs."
  in
  let kernels =
    opt_arg Arg.(list string) dc.Loadgen.kernels "kernels" ~docv:"K1,K2,.."
      ~doc:"Kernel mix drawn uniformly per request."
  in
  let chaos =
    flag_arg "chaos"
      ~doc:
        "Arm fault schedules on a seeded fraction of requests: \
         quarantines, breaker trips and recoveries under load."
  in
  let chaos_rate =
    opt_arg Arg.float dc.Loadgen.chaos_rate "chaos-rate" ~docv:"R"
      ~doc:"Fraction of requests carrying a fault."
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
    opt_arg Arg.(some float) None "deadline-ms" ~docv:"MS" ~doc:"Per-request deadline."
  in
  let no_fallback_rate =
    opt_arg Arg.float dc.Loadgen.no_fallback_rate "no-fallback-rate" ~docv:"R"
      ~doc:"Chaos fraction of requests forbidding CPU fallback."
  in
  let out = out_arg "out" ~doc:"Also write the result JSON to FILE." in
  let require_zero_internal =
    flag_arg "require-zero-internal"
      ~doc:
        "Exit non-zero unless internal errors, protocol errors and \
         unanswered in-flight requests are all zero (CI gate)."
  in
  let require_recoveries =
    flag_arg "require-recoveries"
      ~doc:
        "Exit non-zero unless the daemon reports breaker trips and \
         half-open recloses, proving quarantine and recovery both \
         happened (CI chaos gate)."
  in
  let run socket requests concurrency seed kernels chaos chaos_rate injects deadline_ms
      no_fallback_rate out require_zero_internal require_recoveries =
    let injects = if injects = [] then dc.Loadgen.injects else injects in
    let cfg =
      { Loadgen.socket; requests; concurrency; seed; kernels; chaos; chaos_rate; injects;
        deadline_ms; no_fallback_rate }
    in
    match Loadgen.run cfg with
    | exception Unix.Unix_error (err, _, _) -> Error (unix_error socket err)
    | exception Invalid_argument e -> Error (`Msg e)
    | r -> (
      let json = Loadgen.result_to_json r in
      print_endline (Json.to_string json);
      let* () = msg (Option.fold ~none:(Ok ()) ~some:(fun f -> write_json f json) out) in
      match Loadgen.gate_failures ~require_zero_internal ~require_recoveries r with
      | [] -> Ok ()
      | failures ->
        List.iter prerr_endline failures;
        exit 1)
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

let interval_ms_arg default =
  opt_arg Arg.float default "interval-ms" ~docv:"MS" ~doc:"Frame cadence in milliseconds."

let watch_request ~interval_ms ?frames () =
  Proto.Watch (Proto.watch_request ~interval_ms ?frames ~id:1 ())

(* Run [f] with an emitter that prints each line and, with [out], also
   appends it there, flushed per line. *)
let with_tee out f =
  let open_tee p = writing (fun () -> Some (open_out p)) in
  let* oc = msg (Option.fold ~none:(Ok None) ~some:open_tee out) in
  let emit text =
    print_string text;
    print_newline ();
    Option.iter (fun o -> output_string o text; output_char o '\n'; flush o) oc
  in
  msg (Fun.protect ~finally:(fun () -> Option.iter close_out oc) (fun () -> f emit))

let watch_cmd =
  let frames =
    opt_arg Arg.(some int) None "frames" ~docv:"N"
      ~doc:"Stop after N frames; default: until the daemon drains."
  in
  let out =
    out_arg "out"
      ~doc:
        "Also append each frame line to FILE (flushed per frame) — the \
         input `mesa_cli telemetry-check` gates on."
  in
  let run socket interval_ms frames out =
    with_tee out (fun emit ->
        let on_body = function
          | Proto.Frame j -> Ok (emit (Json.to_string ~indent:0 j))
          | _ -> Error "unexpected response in watch stream"
        in
        Loadgen.subscribe ~socket (watch_request ~interval_ms ?frames ()) ~on_body
        |> Result.map (Printf.eprintf "watch: %d frame(s)\n%!"))
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
    Term.(term_result (const run $ socket_arg $ interval_ms_arg 250.0 $ frames $ out))

let top_cmd =
  let once =
    flag_arg "once"
      ~doc:
        "Print a single frame and exit (greppable `path value` totals \
         — what the CI smoke test polls for refine acceptances)."
  in
  let run socket interval_ms once =
    let on_body = function
      | Proto.Frame j ->
        let* f = Result.map_error (( ^ ) "bad frame: ") (Telemetry.frame_of_json j) in
        if not once then print_string "\027[2J\027[H";
        print_string (Telemetry.render_frame f);
        Ok (flush stdout)
      | _ -> Error "unexpected response in watch stream"
    in
    let frames = if once then Some 1 else None in
    Loadgen.subscribe ~socket (watch_request ~interval_ms ?frames ()) ~on_body
    |> Result.map ignore |> msg
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
    opt_arg Arg.(some int) None "spans" ~docv:"N"
      ~doc:"Stop after N spans; default: until the daemon drains."
  in
  let out = out_arg "out" ~doc:"Write the stream to FILE." in
  let perfetto =
    flag_arg "perfetto"
      ~doc:
        "Emit one Chrome trace_event JSON document (load it in \
         ui.perfetto.dev; one thread lane per shard) instead of \
         line-delimited span JSON. Buffers until the stream ends."
  in
  let run socket spans out perfetto =
    let collected = ref [] in
    with_tee (if perfetto then None else out) (fun emit ->
        let on_body = function
          | Proto.Span j ->
            let* sp = Result.map_error (( ^ ) "bad span: ") (Telemetry.span_of_json j) in
            Ok (if perfetto then collected := sp :: !collected
                else emit (Json.to_string ~indent:0 j))
          | _ -> Error "unexpected response in trace stream"
        in
        let request = Proto.Trace (Proto.trace_request ?spans ~id:2 ()) in
        let* n = Loadgen.subscribe ~socket request ~on_body in
        let doc () = Trace.to_string (List.rev_map Telemetry.to_trace_span !collected) in
        match out with
        | _ when not perfetto -> Ok (Printf.eprintf "trace: %d span(s)\n%!" n)
        | None -> Ok (print_endline (doc ()))
        | Some path ->
          let* () = write_text path (doc ()) in
          Ok (Printf.eprintf "trace: %d span(s) -> %s\n%!" n path))
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
    opt_arg Arg.(some string) None "stats" ~docv:"FILE"
      ~doc:
        "Final stats snapshot from `serve --stats-out`; the stream's \
         summed per-outcome deltas must close exactly against its \
         totals."
  in
  let require_oracle =
    flag_arg "require-oracle-refresh"
      ~doc:
        "Exit non-zero unless at least one profiling window handed \
         measured oracles to the refiner."
  in
  let require_refine =
    flag_arg "require-refine-accept"
      ~doc:
        "Exit non-zero unless at least one background refinement was \
         confirmed and installed as the service's override for its kernel."
  in
  let run frames_path stats_path require_oracle require_refine =
    let* lines =
      try Ok (In_channel.with_open_text frames_path In_channel.input_lines)
      with Sys_error e -> Error (`Msg ("cannot read " ^ e))
    in
    let* stats =
      Option.fold stats_path ~none:(Ok None) ~some:(fun p ->
          Result.map Option.some (load Stats.of_json p))
    in
    let frames, unparsed = Telemetry.parse_frames lines in
    let require =
      (if require_oracle then [ "telemetry.oracle_refreshes" ] else [])
      @ if require_refine then [ "telemetry.refine_accepts" ] else []
    in
    match (unparsed, Telemetry.check ?stats ~require frames) with
    | [], Ok () ->
      Ok
        (Printf.printf "telemetry-check: OK (%d frame(s), deltas close against totals%s)\n"
           (List.length frames) (if stats = None then "" else " and the stats snapshot"))
    | unparsed, r ->
      List.iter prerr_endline (unparsed @ match r with Ok () -> [] | Error fs -> fs);
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
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; disasm_cmd; dfg_cmd; map_cmd; schedule_cmd; imap_cmd; run_cmd;
            profile_cmd; profile_diff_cmd; stats_diff_cmd; refine_cmd; dse_cmd; fuzz_cmd;
            serve_cmd; loadgen_cmd; watch_cmd; top_cmd; trace_cmd; telemetry_check_cmd ]))
