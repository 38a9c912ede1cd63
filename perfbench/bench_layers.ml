(* The traced run: the workloads' work replayed as explicit calls into
   each layer's public functions, one Trace span per call. Per-layer
   metrics are read back from the recorded spans; the spans themselves
   become a Chrome trace. Every traced run measures every layer, each
   section sized so the whole run takes about 11 s. Host time, so run it
   separately from the untraced end-to-end measurement. *)

open Bench_util

type ledger = {
  t0 : float;
  mutable spans : Trace.span list;
  samples : (string, float list) Hashtbl.t;  (* seconds per call, by span name *)
}

let samples l name = Option.value (Hashtbl.find_opt l.samples name) ~default:[]
let total l name = List.fold_left ( +. ) 0.0 (samples l name)
let calls l name = List.length (samples l name)
let p50_ms l name = 1000.0 *. Stats.percentile 0.5 (samples l name)
let us s = int_of_float (s *. 1e6)

(* Run [f] as one span named [name]. *)
let span l ?(cat = "layer") name f =
  let s = now () in
  let r = f () in
  let e = now () in
  l.spans <-
    Trace.span ~cat ~ts:(us (s -. l.t0)) ~dur:(max 1 (us (e -. s))) name :: l.spans;
  Hashtbl.replace l.samples name ((e -. s) :: samples l name);
  r

(* [f] on a fresh machine holding [k]'s inputs. *)
let with_machine l (k : Kernel.t) f =
  let mem, machine =
    span l "mem.create" (fun () ->
        let mem = Main_memory.create () in
        (mem, Kernel.prepare k mem))
  in
  Fun.protect ~finally:(fun () -> Main_memory.release mem) (fun () -> f machine)

(* One engine run of [config] on a fresh machine holding [k]'s inputs,
   the engine call itself wrapped in [around]. [Some result] when the loop
   completes and the outputs check, as a refine confirmation is
   accepted. *)
let engine_run ?(around = fun f -> f ()) (k : Kernel.t) dfg config =
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let hier = Hierarchy.create Hierarchy.default_config in
  let out =
    match around (fun () -> Engine.execute ~config ~dfg ~machine ~hier ()) with
    | Ok r when r.Engine.completed && k.Kernel.check mem = Ok () -> Some r
    | Ok _ | Error _ -> None
  in
  Hierarchy.release hier;
  Main_memory.release mem;
  out

(* ------------------------------------------------------------------ *)

(* One paper-suite pass, one span per experiment. *)
let suite_section l tally =
  let experiments =
    List.map
      (fun (name, run) -> (name, fun () -> span l ("suite." ^ name) run))
      Bench_workloads.suite
  in
  let c0 = Sim_meter.read () and a0 = alloc_mwords () in
  span l ~cat:"section" "suite" (fun () -> Bench_workloads.suite_pass tally experiments);
  let cycles = Sim_meter.read () - c0 in
  let hits, misses, _ = Runner.translation_cache_stats () in
  List.map
    (fun e -> ("suite." ^ e ^ "_s", total l ("suite." ^ e)))
    Bench_names.suite_experiments
  @ [
      ("suite.sim_cycles_per_s", float_of_int cycles /. total l "suite");
      ("suite.alloc_mwords", alloc_mwords () -. a0);
      ("memo.hits", float_of_int hits);
      ("memo.misses", float_of_int misses);
    ]

(* Every registry kernel through each layer at M-128, from a cold memo.
   The engine runs the Algorithm-1 placement without the optimisation
   passes. *)
let replay_section l =
  let grid = Grid.m128 in
  Runner.clear_translation_cache ();
  let engine_cycles = ref 0 in
  let replay (k : Kernel.t) =
    with_machine l k (fun m ->
        ignore (span l "interp.run" (fun () -> Interp.run k.Kernel.program m)));
    ignore (span l "cpu.single_core" (fun () -> Runner.single_core k));
    ignore (span l "cpu.multicore" (fun () -> Runner.multicore k));
    with_machine l k (fun m ->
        let options = Controller.default_options ~grid () in
        let r = span l "controller.run" (fun () -> Controller.run ~options k.Kernel.program m) in
        Hierarchy.release r.Controller.hier);
    match span l "translate.ldfg" (fun () -> Runner.dfg_of_kernel k) with
    | exception Failure _ -> ()
    | dfg -> (
      let model = Perf_model.create dfg in
      match
        span l "translate.map" (fun () ->
            Mapper.map ~grid ~kind:Interconnect.Mesh_noc model)
      with
      | Error _ -> ()
      | Ok placement ->
        engine_run ~around:(span l "engine.execute") k dfg
          (Accel_config.plain placement)
        |> Option.iter (fun r -> engine_cycles := !engine_cycles + r.Engine.cycles))
  in
  span l ~cat:"section" "replay" (fun () -> List.iter replay (Workloads.all ()));
  [
    ("cpu.single_core_s", total l "cpu.single_core");
    ("cpu.multicore_s", total l "cpu.multicore");
    ("interp.run_s", total l "interp.run");
    ("translate.ldfg_s", total l "translate.ldfg");
    ("translate.map_s", total l "translate.map");
    ("controller.run_s", total l "controller.run");
    ("engine.execute_s", total l "engine.execute");
    ( "engine.ns_per_sim_cycle",
      1e9 *. total l "engine.execute" /. float_of_int !engine_cycles );
    ("mem.create_s", total l "mem.create");
  ]

(* A refine pass replayed through Mapper.refine with timed predict and
   confirm closures. Refine.run with no rounds supplies each kernel's
   translation, Algorithm-1 placement and iteration count; the replay's
   cycles must equal Refine.run's pins. Returns the metrics and the cost
   model's share of the replayed pass. *)
let refine_section l tally =
  let grid = Bench_workloads.refine_grid in
  Runner.clear_translation_cache ();
  let inputs =
    List.map
      (fun (name, expected) ->
        (Workloads.find name, Refine.run ~max_rounds:0 ~grid (Workloads.find name), expected))
      Bench_workloads.refine_pins
  in
  let a0 = alloc_mwords () in
  let confirmed = ref 0 and accepted = ref 0 and search_self = ref 0.0 in
  let refine_one (k, input, expected) =
    let result =
      match input with
      | Error e -> Error e
      | Ok (r0 : Refine.report) -> (
        (* Refine.config_for looks the kernel up in the registry on every
           call, which Refine.run does not: its own span, left out of the
           pass. *)
        let config_of pl = span l "refine.config" (fun () -> Refine.config_for r0 pl) in
        let dfg = r0.Refine.dfg in
        match
          let config = config_of r0.Refine.baseline in
          span l "refine.baseline" (fun () -> engine_run k dfg config)
        with
        | None -> Error "baseline execution failed"
        | Some base ->
          (* Refine's model horizon. *)
          let iterations = min base.Engine.iterations 128 in
          let predict pl =
            let config = config_of pl in
            span l "refine.cost_model" (fun () ->
                Cost_model.estimate ~config ~dfg ~iterations ())
          in
          let confirm pl =
            let config = config_of pl in
            span l "refine.confirm" (fun () ->
                Option.map (fun r -> r.Engine.cycles) (engine_run k dfg config))
          in
          let inner () =
            total l "refine.cost_model" +. total l "refine.confirm"
            +. total l "refine.config"
          in
          let before = inner () in
          let r =
            span l "refine.search" (fun () ->
                Mapper.refine ~seed:0 ~predict ~confirm ~dfg
                  ~baseline_cycles:base.Engine.cycles r0.Refine.baseline)
          in
          search_self :=
            !search_self +. List.hd (samples l "refine.search") -. (inner () -. before);
          (* Refine.run also prices both placements for its report. *)
          ignore (predict r0.Refine.baseline);
          ignore (predict r.Mapper.placement);
          confirmed := !confirmed + r.Mapper.confirmed;
          accepted := !accepted + r.Mapper.accepted;
          Ok (r.Mapper.baseline_cycles, r.Mapper.refined_cycles))
    in
    let got = match result with Ok c -> c | Error _ -> (-1, -1) in
    op tally
      (pin tally ("refine_replay." ^ k.Kernel.name) (got = expected)
         (Printf.sprintf "%d -> %d cycles, Refine.run gives %d -> %d" (fst got)
            (snd got) (fst expected) (snd expected)))
  in
  span l ~cat:"section" "refine" (fun () -> List.iter refine_one inputs);
  let model_s = total l "refine.cost_model" in
  ( [
      ("refine.cost_model.calls", float_of_int (calls l "refine.cost_model"));
      ("refine.cost_model_s", model_s);
      ( "refine.cost_model_us_per_call",
        1e6 *. model_s /. float_of_int (calls l "refine.cost_model") );
      ("refine.confirm.calls", float_of_int (calls l "refine.confirm"));
      ("refine.confirm_s", total l "refine.confirm");
      ("refine.baseline_s", total l "refine.baseline");
      ("refine.search_self_s", !search_self);
      ("refine.accept_ratio", float_of_int !accepted /. float_of_int !confirmed);
      ("refine.alloc_mwords", alloc_mwords () -. a0);
    ],
    model_s /. (total l "refine" -. total l "refine.config") )

(* [cases] seeded fuzz cases, serially, with the oracle's interpreter run,
   memory comparison and checksum replayed on their own. *)
let fuzz_section l tally ~seed ~cases =
  let next_seed = Bench_workloads.seed_stream seed in
  let offloaded = ref 0 in
  let case () =
    let spec, lowered =
      span l "fuzz.gen" (fun () ->
          let spec = Tile_gen.generate ~seed:(next_seed ()) in
          (spec, Tile_lower.lower spec))
    in
    let fabric = Fuzz.draw_fabric (Prng.create (next_seed ())) in
    match lowered with
    | Error _ -> ()  (* an invalid input, see Bench_workloads.rejected *)
    | Ok b ->
      (match span l "fuzz.case" (fun () -> Fuzz.run_case spec fabric) with
      | Ok o ->
        if o.Fuzz.offloads > 0 then incr offloaded;
        op tally true
      | Error _ -> op tally false);
      let mem = Main_memory.create () in
      b.Tile_lower.setup mem;
      let m = Machine.create ~pc:(Program.entry b.Tile_lower.program) mem in
      Machine.set_args m (b.Tile_lower.args ~lo:0 ~hi:b.Tile_lower.n);
      ignore (span l "fuzz.interp" (fun () -> Interp.run b.Tile_lower.program m));
      let twin = Main_memory.copy mem in
      ignore (span l "fuzz.mem_equal" (fun () -> Main_memory.equal mem twin));
      ignore (span l "fuzz.mem_checksum" (fun () -> Main_memory.checksum mem));
      Main_memory.release twin;
      Main_memory.release mem
  in
  span l ~cat:"section" "fuzz" (fun () -> for _ = 1 to cases do case () done);
  let case_ms = List.map (fun s -> 1000.0 *. s) (samples l "fuzz.case") in
  [
    ("fuzz.case_ms_p50", Stats.percentile 0.5 case_ms);
    ("fuzz.case_ms_p99", Stats.percentile 0.99 case_ms);
    ("fuzz.gen_s", total l "fuzz.gen");
    ("fuzz.interp_s", total l "fuzz.interp");
    ("fuzz.mem_equal_s", total l "fuzz.mem_equal");
    ("fuzz.mem_checksum_s", total l "fuzz.mem_checksum");
    ( "fuzz.offload_ratio",
      float_of_int !offloaded /. float_of_int (calls l "fuzz.case") );
  ]

(* The fuzz acceptance campaign: 500 cases of seed 1 on two domains give
   this digest, no failure and 328 offloaded cases. *)
let fuzz_pin_seed = 1
let fuzz_pin_cases = 500
let fuzz_pin_digest = 0x1ef08ca2d37f7c6f
let fuzz_pin_offloaded = 328

let fuzz_pin l tally =
  let s =
    span l ~cat:"section" "fuzz.campaign" (fun () ->
        Fuzz.run ~jobs:Bench_workloads.fuzz_jobs ~seed:fuzz_pin_seed
          ~count:fuzz_pin_cases ())
  in
  op tally
    (pin tally "fuzz.seed1_500"
       (s.Fuzz.digest = fuzz_pin_digest && s.Fuzz.failures = []
       && s.Fuzz.offloaded_cases = fuzz_pin_offloaded)
       (Printf.sprintf "digest %016x, %d failures, %d/%d offloaded" s.Fuzz.digest
          (List.length s.Fuzz.failures) s.Fuzz.offloaded_cases fuzz_pin_cases))

(* Every clean fabric run of a kernel on a 64-PE shard produces these
   (cycles, memory checksum). *)
let mesad_expected =
  [
    ("nn", (21103, 3534275443402298154));
    ("kmeans", (14459, 477872864757326337));
    ("bfs", (14081, 1584388639539424749));
  ]

let run_ok (req : Proto.run_request) = function
  | Proto.Ok_run b ->
    b.Proto.site = Proto.Fabric
    && List.assoc_opt req.Proto.kernel mesad_expected
       = Some (b.Proto.cycles, b.Proto.mem_checksum)
  | _ -> false

(* [n] pings over one connection; each must be answered by its pong. *)
let pings l tally ~socket n =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  for id = 1 to n do
    let rsp =
      span l "mesad.ping" (fun () ->
          output_string oc (Proto.request_to_line (Proto.Ping id));
          output_char oc '\n';
          flush oc;
          Result.bind (Json.of_string (input_line ic)) Proto.response_of_json)
    in
    op tally (match rsp with Ok { Proto.rsp_id; body = Proto.Pong } -> rsp_id = id | _ -> false)
  done

(* The daemon's layers: ping over the socket, the wire codec, serial
   in-process execution, a closed-loop load at concurrency 2, and the
   fabric path of a request replayed call by call. *)
let mesad_section l tally ~seed ~socket ~requests =
  let module W = Bench_workloads in
  Runner.clear_translation_cache ();
  let d =
    span l "mesad.start" (fun () ->
        Mesad.start ~service_config:W.mesad_config ~socket ())
  in
  let cfg = W.loadgen_config ~socket ~seed ~requests ~concurrency:W.mesad_concurrency in
  let body () =
    pings l tally ~socket 20;
    let svc = Mesad.service d in
    let served =
      List.init requests (fun i ->
          let req = Loadgen.request_at cfg i in
          let b = span l "mesad.service" (fun () -> Service.execute svc req) in
          op tally (run_ok req b);
          (req, b))
    in
    let req, b = List.hd served in
    let rounds = 2000 in
    span l "mesad.codec" (fun () ->
        for _ = 1 to rounds do
          let line = Proto.request_to_line (Proto.Run req) in
          ignore (Result.bind (Json.of_string line) Proto.request_of_json);
          let line = Proto.response_to_line { Proto.rsp_id = req.Proto.id; body = b } in
          ignore (Result.bind (Json.of_string line) Proto.response_of_json)
        done);
    let lg = span l "mesad.loadgen" (fun () -> Loadgen.run cfg) in
    op tally (lg.Loadgen.ok_fabric = requests && lg.Loadgen.protocol_errors = 0);
    let counter path =
      float_of_int (Option.value (Loadgen.find_service_counter lg path) ~default:(-1))
    in
    let grid = Grid.of_pe_count W.mesad_config.Service.shard_pes in
    let options =
      { (Controller.default_options ~grid ()) with
        Controller.watchdog_window = W.mesad_config.Service.watchdog_window }
    in
    for i = 0 to 19 do
      let req = Loadgen.request_at cfg i in
      let k = Workloads.find req.Proto.kernel in
      let mem, machine =
        span l "mesad.mem_create" (fun () ->
            let mem = Main_memory.create () in
            (mem, Kernel.prepare k mem))
      in
      let report = span l "mesad.controller" (fun () -> Controller.run ~options k.Kernel.program machine) in
      let sum = span l "mesad.checksum" (fun () -> Main_memory.checksum mem) in
      let verdict = span l "mesad.check" (fun () -> k.Kernel.check mem) in
      op tally
        (verdict = Ok ()
        && List.assoc_opt k.Kernel.name mesad_expected
           = Some (report.Controller.total_cycles, sum));
      Hierarchy.release report.Controller.hier;
      Main_memory.release mem
    done;
    [
      ("mesad.service_ms_p50", p50_ms l "mesad.service");
      ("mesad.ping_ms_p50", p50_ms l "mesad.ping");
      ("mesad.codec_us", 1e6 *. total l "mesad.codec" /. float_of_int rounds);
      ("mesad.wait_ms_p50", lg.Loadgen.p50_ms -. p50_ms l "mesad.service");
      ("mesad.loadgen_p99_ms", lg.Loadgen.p99_ms);
      ("mesad.mem_create_ms", p50_ms l "mesad.mem_create");
      ("mesad.controller_ms", p50_ms l "mesad.controller");
      ("mesad.checksum_ms", p50_ms l "mesad.checksum");
      ("mesad.check_ms", p50_ms l "mesad.check");
      ("mesad.queue_peak_depth", counter "service.queue.peak_depth");
      ("mesad.memo_translation_hits", counter "service.memo.translation_hits");
      ("mesad.memo_translation_misses", counter "service.memo.translation_misses");
    ]
  in
  span l ~cat:"section" "mesad" (fun () ->
      Fun.protect ~finally:(fun () -> ignore (Mesad.stop d)) body)

let fuzz_cases = 30
let mesad_requests = 30

(* Every section, whatever the workload: each traced run reports every
   per-layer metric. The fuzz workload at seed 1 also runs the 500-case
   acceptance campaign and pins its digest. *)
let run ~workload ~seed ~out_dir tally =
  let socket = Filename.concat out_dir (Printf.sprintf "mesad-%d.sock" (Unix.getpid ())) in
  let l = { t0 = now (); spans = []; samples = Hashtbl.create 64 } in
  let suite = suite_section l tally in
  let replay = replay_section l in
  let refine, model_share = refine_section l tally in
  let fuzz = fuzz_section l tally ~seed ~cases:fuzz_cases in
  let mesad = mesad_section l tally ~seed ~socket ~requests:mesad_requests in
  let pin_campaign = workload = "fuzz" && seed = fuzz_pin_seed in
  if pin_campaign then fuzz_pin l tally;
  let computed = suite @ replay @ refine @ fuzz @ mesad in
  let metrics =
    List.map
      (fun (m : Bench_names.metric) ->
        match List.assoc_opt m.Bench_names.name computed with
        | Some v -> (m.Bench_names.name, v)
        | None -> failwith ("traced run did not compute " ^ m.Bench_names.name))
      Bench_names.per_layer_metrics
  in
  let sections =
    [ "suite"; "replay"; "refine"; "fuzz"; "mesad" ]
    @ if pin_campaign then [ "fuzz.campaign" ] else []
  in
  let detail =
    [
      ("refine.cost_model_share_of_pass", Json.Float model_share);
      ("fuzz_cases", Json.Int fuzz_cases);
      ("mesad_requests", Json.Int mesad_requests);
      ( "fuzz_seed1_500_pin",
        Json.String
          (if pin_campaign then "checked"
           else "not run: only --workload fuzz --seed 1 --trace 1 runs it") );
      ( "section_s",
        Json.Assoc (List.map (fun s -> (s, Json.Float (total l s))) sections) );
      ("layer_map", Bench_names.layer_map_json);
    ]
  in
  let spans =
    Trace.process_name ~pid:0 "perfbench" :: List.rev l.spans
  in
  (metrics, detail, spans)
