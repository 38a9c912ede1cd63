(* Cycle-attribution profiler: closure of the stall taxonomy against the
   controller's wall-clock accounting, bit-identity of profiled runs,
   deterministic profiles, the JSON schema round-trip, the regression gate,
   and the Perfetto lane extensions to Trace. *)

let check = Alcotest.check

let profile_of ?(grid = Grid.m64) name =
  let k = Workloads.find name in
  let _, report = Runner.mesa ~options:(Controller.default_options ~grid ~profile:true ()) k in
  match Profile.of_report ~kernel:name report with
  | Ok p -> (p, report)
  | Error e -> Alcotest.failf "profile of %s: %s" name e

(* ------------------------------------------------------------------ *)
(* Closure: every lane's buckets sum to exactly accel + overhead cycles. *)

let closure_against_accounting () =
  List.iter
    (fun name ->
      let p, report = profile_of name in
      check Alcotest.bool (name ^ " closes") true (Profile.closes p);
      check Alcotest.int
        (name ^ " attributed = accel + overhead")
        (report.Controller.accel_cycles + report.Controller.overhead_cycles)
        p.Profile.attributed_cycles;
      Array.iteri
        (fun i b ->
          check Alcotest.int
            (Printf.sprintf "%s lane %s sum" name p.Profile.lane_labels.(i))
            p.Profile.attributed_cycles
            (Array.fold_left ( + ) 0 b))
        p.Profile.lane_buckets)
    [ "bfs"; "nn"; "kmeans" ]

let collector_closure () =
  let _, report = profile_of "bfs" |> fun (_, r) -> ((), r) in
  match report.Controller.attribution with
  | None -> Alcotest.fail "no attribution"
  | Some a ->
    check Alcotest.int "total = engine + config"
      (Attribution.engine_cycles a + Attribution.config_cycles a)
      (Attribution.total_cycles a);
    for lane = 0 to Attribution.lane_count a - 1 do
      check Alcotest.int
        (Printf.sprintf "lane %d quantized sum" lane)
        (Attribution.total_cycles a)
        (Array.fold_left ( + ) 0 (Attribution.lane_buckets a lane))
    done

(* ------------------------------------------------------------------ *)
(* Bit-identity: profiling must not perturb timing or architecture. *)

let run_controller ~profile (k : Kernel.t) ~grid ~kind =
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let options =
    { (Controller.default_options ~grid ~profile ()) with Controller.kind }
  in
  let report = Controller.run ~options k.Kernel.program machine in
  (report, machine, mem)

let profiling_is_pure_observation () =
  List.iter
    (fun name ->
      let k = Workloads.find name in
      let grid = Grid.m64 and kind = Interconnect.Mesh_noc in
      let off, m_off, mem_off = run_controller ~profile:false k ~grid ~kind in
      let on, m_on, mem_on = run_controller ~profile:true k ~grid ~kind in
      check Alcotest.int (name ^ " total cycles") off.Controller.total_cycles
        on.Controller.total_cycles;
      check Alcotest.int (name ^ " cpu cycles") off.Controller.cpu_cycles
        on.Controller.cpu_cycles;
      check Alcotest.int (name ^ " accel cycles") off.Controller.accel_cycles
        on.Controller.accel_cycles;
      check Alcotest.int (name ^ " overhead") off.Controller.overhead_cycles
        on.Controller.overhead_cycles;
      check Alcotest.bool (name ^ " memory identical") true
        (Main_memory.equal mem_off mem_on);
      check Alcotest.bool (name ^ " registers identical") true
        (Machine.arch_equal m_off m_on))
    [ "bfs"; "nn"; "hotspot" ]

(* The reference cycle counts the roadmap pins must be reproduced exactly
   with profiling armed. *)
let reference_cycles_with_profiling () =
  List.iter
    (fun (name, cycles) ->
      let k = Workloads.find name in
      let m, _ = Runner.mesa ~options:(Controller.default_options ~profile:true ()) k in
      check Alcotest.int (name ^ " reference cycles") cycles m.Runner.cycles)
    [ ("nn", 11464); ("kmeans", 8469); ("bfs", 14081) ]

(* ------------------------------------------------------------------ *)
(* Randomized properties. *)

(* The shared draw, with the port axis capped: profiling every port width
   is slow and adds nothing to the closure property. *)
let gen_arch_case = Gen.arch_case ~max_ports:8 ()
let print_arch_case = Gen.arch_case_print

let profile_json (k : Kernel.t) ~grid ~kind =
  let report, _, _ = run_controller ~profile:true k ~grid ~kind in
  match Profile.of_report ~kernel:k.Kernel.name report with
  | Ok p -> Json.to_string (Profile.to_json p)
  | Error e -> Alcotest.failf "profile: %s" e

(* Profiling the same draw twice yields bit-identical profile JSON. *)
let profiles_are_deterministic =
  QCheck2.Test.make ~name:"random configs: profiles are bit-identical across runs"
    ~count:6 ~print:print_arch_case gen_arch_case
    (fun (c : Gen.arch_case) ->
      let k = Gen.arch_case_kernel c in
      let grid = Grid.make ~rows:c.Gen.rows ~cols:c.Gen.cols ~mem_ports:c.Gen.ports () in
      let kind = c.Gen.kind in
      String.equal (profile_json k ~grid ~kind) (profile_json k ~grid ~kind))

(* Every lane's bucket sum closes against the run's fabric accounting. *)
let profiles_close =
  QCheck2.Test.make ~name:"random configs: attribution closes on every lane"
    ~count:8 ~print:print_arch_case gen_arch_case
    (fun (c : Gen.arch_case) ->
      let k = Gen.arch_case_kernel c in
      let grid = Grid.make ~rows:c.Gen.rows ~cols:c.Gen.cols ~mem_ports:c.Gen.ports () in
      let report, _, _ = run_controller ~profile:true k ~grid ~kind:c.Gen.kind in
      match Profile.of_report ~kernel:k.Kernel.name report with
      | Error e -> Alcotest.failf "profile: %s" e
      | Ok p ->
        Profile.closes p
        && p.Profile.attributed_cycles
           = report.Controller.accel_cycles + report.Controller.overhead_cycles)

(* Profiling on/off leaves cycles, memory and registers bit-identical. *)
let profiling_bit_identical =
  QCheck2.Test.make
    ~name:"random configs: profiling on/off is bit-identical" ~count:6
    ~print:print_arch_case gen_arch_case
    (fun (c : Gen.arch_case) ->
      let k = Gen.arch_case_kernel c in
      let grid = Grid.make ~rows:c.Gen.rows ~cols:c.Gen.cols ~mem_ports:c.Gen.ports () in
      let kind = c.Gen.kind in
      let off, m_off, mem_off = run_controller ~profile:false k ~grid ~kind in
      let on, m_on, mem_on = run_controller ~profile:true k ~grid ~kind in
      off.Controller.total_cycles = on.Controller.total_cycles
      && off.Controller.accel_cycles = on.Controller.accel_cycles
      && off.Controller.overhead_cycles = on.Controller.overhead_cycles
      && Main_memory.equal mem_off mem_on
      && Machine.arch_equal m_off m_on)

(* ------------------------------------------------------------------ *)
(* Collector unit behaviour. *)

let small_grid = Grid.make ~rows:2 ~cols:2 ~mem_ports:2 ()

let collector_charges_and_tails () =
  let a = Attribution.create ~grid:small_grid () in
  Attribution.begin_window a ~at:100.0;
  (* Lane 0: waits 2 (1 of it NoC), queues 1 on a port, serves 3. *)
  Attribution.charge_op a ~lane:0 ~start:2.0 ~noc_wait:1.0 ~port_wait:1.0
    ~service:3.0 ~long_op:false;
  Attribution.end_window a ~grid:small_grid ~cycles:10 ~iterations:1;
  let b = Attribution.lane_buckets a 0 in
  let idx bk = Attribution.bucket_index bk in
  check Alcotest.int "busy" 3 b.(idx Attribution.Busy);
  check Alcotest.int "rec wait" 1 b.(idx Attribution.Recurrence_wait);
  check Alcotest.int "noc" 1 b.(idx Attribution.Noc_stall);
  check Alcotest.int "port" 1 b.(idx Attribution.Mem_port_stall);
  check Alcotest.int "drain" 4 b.(idx Attribution.Drain);
  (* An untouched lane is all Idle. *)
  let b1 = Attribution.lane_buckets a 1 in
  check Alcotest.int "idle lane" 10 b1.(idx Attribution.Idle);
  check Alcotest.int "total" 10 (Attribution.total_cycles a);
  (* Interval ring carries absolute (w_at-offset) times. *)
  match Attribution.lane_intervals a 0 with
  | (start, dur, bucket) :: _ ->
    check (Alcotest.float 1e-9) "first interval at w_at" 100.0 start;
    check (Alcotest.float 1e-9) "first interval dur" 1.0 dur;
    check Alcotest.bool "first interval bucket" true
      (bucket = Attribution.Recurrence_wait)
  | [] -> Alcotest.fail "no intervals"

let collector_overlap_clips () =
  let a = Attribution.create ~grid:small_grid () in
  Attribution.begin_window a ~at:0.0;
  Attribution.charge_op a ~lane:0 ~start:0.0 ~noc_wait:0.0 ~port_wait:0.0
    ~service:4.0 ~long_op:false;
  (* Second (pipelined) firing starts inside the first: only the
     non-overlapping tail may charge. *)
  Attribution.charge_op a ~lane:0 ~start:2.0 ~noc_wait:0.0 ~port_wait:0.0
    ~service:4.0 ~long_op:false;
  Attribution.end_window a ~grid:small_grid ~cycles:6 ~iterations:2;
  let b = Attribution.lane_buckets a 0 in
  check Alcotest.int "clipped busy" 6
    b.(Attribution.bucket_index Attribution.Busy);
  check Alcotest.int "no drain" 0
    b.(Attribution.bucket_index Attribution.Drain)

let collector_fractional_quantization () =
  let a = Attribution.create ~grid:small_grid () in
  Attribution.begin_window a ~at:0.0;
  (* Fractional segments: 0.4 wait + 2.3 busy; the remaining 7.3 drains.
     Quantization must make the integers close to exactly 10. *)
  Attribution.charge_op a ~lane:0 ~start:0.4 ~noc_wait:0.0 ~port_wait:0.0
    ~service:2.3 ~long_op:false;
  Attribution.end_window a ~grid:small_grid ~cycles:10 ~iterations:1;
  for lane = 0 to Attribution.lane_count a - 1 do
    check Alcotest.int
      (Printf.sprintf "lane %d closes" lane)
      10
      (Array.fold_left ( + ) 0 (Attribution.lane_buckets a lane))
  done

let collector_abort_restores () =
  let a = Attribution.create ~grid:small_grid () in
  Attribution.begin_window a ~at:0.0;
  Attribution.charge_op a ~lane:0 ~start:0.0 ~noc_wait:0.0 ~port_wait:0.0
    ~service:4.0 ~long_op:true;
  Attribution.end_window a ~grid:small_grid ~cycles:8 ~iterations:1;
  let before = (Attribution.total_cycles a, Attribution.totals a) in
  (* A faulted window: charges then a rollback, re-charged as Config. *)
  Attribution.begin_window a ~at:8.0;
  Attribution.charge_op a ~lane:1 ~start:1.0 ~noc_wait:0.5 ~port_wait:2.0
    ~service:9.0 ~long_op:false;
  Attribution.end_window a ~grid:small_grid ~cycles:12 ~iterations:1;
  Attribution.abort_window a;
  check Alcotest.int "total restored" (fst before) (Attribution.total_cycles a);
  check Alcotest.(array int) "totals restored" (snd before) (Attribution.totals a);
  Attribution.charge_config a 5;
  check Alcotest.int "config re-charge" (fst before + 5)
    (Attribution.total_cycles a);
  (* totals sums over lanes, and a config stall charges every lane. *)
  check Alcotest.int "config bucket" (5 * Attribution.lane_count a)
    (Attribution.totals a).(Attribution.bucket_index Attribution.Config)

let collector_masked_lanes () =
  let masked = Grid.mask small_grid [ Grid.coord 1 1 ] in
  let a = Attribution.create ~grid:small_grid () in
  Attribution.begin_window a ~at:0.0;
  Attribution.end_window a ~grid:masked ~cycles:5 ~iterations:1;
  let b = Attribution.lane_buckets a (Attribution.pe_lane a (Grid.coord 1 1)) in
  check Alcotest.int "masked lane charged Masked_faulty" 5
    b.(Attribution.bucket_index Attribution.Masked_faulty)

let collector_ring_is_bounded () =
  let a = Attribution.create ~ring:4 ~grid:small_grid () in
  Attribution.begin_window a ~at:0.0;
  for i = 0 to 99 do
    Attribution.charge_op a ~lane:0
      ~start:(float_of_int (2 * i))
      ~noc_wait:0.0 ~port_wait:0.0 ~service:1.0 ~long_op:false
  done;
  Attribution.end_window a ~grid:small_grid ~cycles:200 ~iterations:100;
  let ivs = Attribution.lane_intervals a 0 in
  check Alcotest.bool "ring bounded" true (List.length ivs <= 4);
  (* Totals are exact even though the ring dropped old intervals. *)
  check Alcotest.int "busy total exact" 100
    (Attribution.lane_buckets a 0).(Attribution.bucket_index Attribution.Busy)

(* ------------------------------------------------------------------ *)
(* JSON schema round-trip and the regression gate. *)

let json_roundtrip () =
  let p, _ = profile_of "bfs" in
  match Profile.of_json (Profile.to_json p) with
  | Error e -> Alcotest.fail e
  | Ok p' ->
    check Alcotest.string "roundtrip identical"
      (Json.to_string (Profile.to_json p))
      (Json.to_string (Profile.to_json p'));
    check Alcotest.bool "roundtrip closes" true (Profile.closes p')

let json_roundtrip_through_text () =
  let p, _ = profile_of "nn" in
  let text = Json.to_string ~indent:2 (Profile.to_json p) in
  match Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match Profile.of_json j with
    | Error e -> Alcotest.fail e
    | Ok p' ->
      check Alcotest.string "text roundtrip" text
        (Json.to_string ~indent:2 (Profile.to_json p')))

let diff_gate () =
  let p, _ = profile_of "bfs" in
  check Alcotest.int "self-diff clean at 0%" 0
    (List.length (Profile.diff ~max_regress:0.0 p p));
  (* Grow one stall bucket past the gate (keeping the record well-formed is
     not required for diff, which reads totals). *)
  let idx = Attribution.bucket_index Attribution.Noc_stall in
  let worse_totals = Array.copy p.Profile.totals in
  worse_totals.(idx) <- worse_totals.(idx) + 500;
  let worse = { p with Profile.totals = worse_totals } in
  (match Profile.diff ~max_regress:5.0 p worse with
  | [ v ] ->
    check Alcotest.string "violating key" "noc_stall" v.Profile.v_key;
    check Alcotest.int "after" (p.Profile.totals.(idx) + 500) v.Profile.v_after
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* A per-bucket tolerance (absolute floor included) absolves it. *)
  check Alcotest.int "tolerance override" 0
    (List.length
       (Profile.diff
          ~tolerances:[ ("noc_stall", 1000.0) ]
          ~max_regress:5.0 p worse));
  (* Shrinking is never a regression. *)
  check Alcotest.int "improvement passes" 0
    (List.length (Profile.diff ~max_regress:0.0 worse p))

let render_names_bottleneck () =
  let p, _ = profile_of "bfs" in
  let text = Profile.render p in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  check Alcotest.bool "names the dominant bucket" true
    (contains text (Attribution.bucket_name p.Profile.dominant));
  check Alcotest.bool "names the II regime" true
    (contains text "bound");
  check Alcotest.bool "reports the critical path" true
    (contains text "critical path")

(* ------------------------------------------------------------------ *)
(* Trace lanes (satellite: pid/tid + metadata events). *)

let trace_lane_fields () =
  let default = Trace.span ~cat:"mesa" ~ts:5 ~dur:2 "plain" in
  check Alcotest.int "default pid" 0 default.Trace.pid;
  check Alcotest.int "default tid" 0 default.Trace.tid;
  let lane = Trace.span ~pid:1 ~tid:42 ~cat:"fabric" ~ts:0 ~dur:1 "busy" in
  let j = Trace.to_chrome_json [ default; lane; Trace.thread_name ~pid:1 ~tid:42 "pe_5_2" ] in
  match Json.member "traceEvents" j with
  | Some (Json.List [ d; l; m ]) ->
    check (Alcotest.option Alcotest.int) "plain pid 0" (Some 0)
      (Option.bind (Json.member "pid" d) Json.to_int);
    check (Alcotest.option Alcotest.int) "lane tid" (Some 42)
      (Option.bind (Json.member "tid" l) Json.to_int);
    check (Alcotest.option Alcotest.string) "metadata ph" (Some "M")
      (Option.bind (Json.member "ph" m) Json.to_string_opt);
    check (Alcotest.option Alcotest.string) "metadata name" (Some "thread_name")
      (Option.bind (Json.member "name" m) Json.to_string_opt);
    check (Alcotest.option Alcotest.string) "metadata lane label" (Some "pe_5_2")
      (Option.bind (Json.path [ "args"; "name" ] m) Json.to_string_opt)
  | _ -> Alcotest.fail "bad trace json"

let timeline_lanes () =
  let _, report = profile_of "bfs" in
  let a = Option.get report.Controller.attribution in
  let spans = Profile.timeline a in
  let metas, events = List.partition (fun s -> s.Trace.meta <> None) spans in
  (* One process per group + one thread per lane and per port. *)
  check Alcotest.int "metadata count"
    (3 + Attribution.lane_count a + Attribution.port_count a)
    (List.length metas);
  check Alcotest.bool "events exist" true (events <> []);
  List.iter
    (fun s ->
      check Alcotest.bool "event on a profiler pid" true
        (s.Trace.pid = 1 || s.Trace.pid = 2);
      check Alcotest.bool "positive duration" true (s.Trace.dur >= 1))
    events;
  (* Bucket-named fabric spans only (idle/masked elided). *)
  List.iter
    (fun s ->
      if s.Trace.pid = 1 then
        check Alcotest.bool ("bucket name: " ^ s.Trace.name) true
          (Attribution.bucket_of_name s.Trace.name <> None))
    events

let suites =
  [
    ( "profile",
      [
        Alcotest.test_case "closure against accounting" `Quick
          closure_against_accounting;
        Alcotest.test_case "collector closure" `Quick collector_closure;
        Alcotest.test_case "profiling is pure observation" `Quick
          profiling_is_pure_observation;
        Alcotest.test_case "reference cycles with profiling" `Quick
          reference_cycles_with_profiling;
        Alcotest.test_case "collector charges and tails" `Quick
          collector_charges_and_tails;
        Alcotest.test_case "collector overlap clips" `Quick
          collector_overlap_clips;
        Alcotest.test_case "collector fractional quantization" `Quick
          collector_fractional_quantization;
        Alcotest.test_case "collector abort restores" `Quick
          collector_abort_restores;
        Alcotest.test_case "collector masked lanes" `Quick collector_masked_lanes;
        Alcotest.test_case "collector ring is bounded" `Quick
          collector_ring_is_bounded;
        Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
        Alcotest.test_case "json roundtrip through text" `Quick
          json_roundtrip_through_text;
        Alcotest.test_case "diff gate" `Quick diff_gate;
        Alcotest.test_case "render names bottleneck" `Quick
          render_names_bottleneck;
        Alcotest.test_case "trace lane fields" `Quick trace_lane_fields;
        Alcotest.test_case "timeline lanes" `Quick timeline_lanes;
        QCheck_alcotest.to_alcotest profiles_are_deterministic;
        QCheck_alcotest.to_alcotest profiles_close;
        QCheck_alcotest.to_alcotest profiling_bit_identical;
      ] );
  ]
