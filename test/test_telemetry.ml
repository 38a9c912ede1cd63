(* The live-telemetry layer: the sketch's quantile bound and ring window,
   frame and span codecs, slow-consumer shedding on the span ring — and the two
   service-level contracts of the profiling-window feedback loop: armed
   telemetry never changes results, and oracle-fed refinement never makes
   a kernel slower. *)

let check = Alcotest.check

(* ---------------- sketches ---------------- *)

(* The documented quantile guarantee: never an underestimate, at most the
   bucket ratio over (or the floor, below it). Values are drawn on the
   sketch's own 1e-3 resolution so the true quantile is unambiguous. *)
let qcheck_quantile_bounds =
  QCheck.Test.make ~count:200 ~name:"Sketch.quantile error bound"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 200) (int_bound 1_000_000))
        (int_bound 100))
    (fun (raw, qi) ->
      let values = List.map (fun i -> float_of_int i /. 1000.0) raw in
      let q = float_of_int qi /. 100.0 in
      let sk = Sketch.create () in
      List.iter (Sketch.observe sk) values;
      let est = Sketch.quantile sk q in
      let n = List.length values in
      let sorted = List.sort compare values in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let true_q = List.nth sorted (rank - 1) in
      let hi = Float.max Sketch.floor_value (true_q *. Sketch.ratio) in
      est >= true_q && est <= hi *. (1.0 +. 1e-9))

(* The ring: [advance] retires the oldest sub-window, so after [windows]
   advances nothing observed before them is visible, and every query reads
   the live sub-windows only. *)
let sketch_ring_window () =
  let sk = Sketch.create ~windows:3 () in
  List.iter (Sketch.observe sk) [ 5.0; 900.0 ];
  Sketch.advance sk;
  List.iter (Sketch.observe sk) [ 1.0; 2.0; 3.0 ];
  check Alcotest.int "both sub-windows are live" 5 (Sketch.window_count sk);
  check (Alcotest.float 0.0) "max over both" 900.0 (Sketch.window_max sk);
  Sketch.advance sk;
  Sketch.advance sk;
  check Alcotest.int "the oldest sub-window is gone" 3 (Sketch.window_count sk);
  check (Alcotest.float 0.0) "max over the live ones" 3.0 (Sketch.window_max sk);
  check (Alcotest.float 0.0) "p99 over the live ones" 3.0 (Sketch.quantile sk 0.99);
  for _ = 1 to 3 do
    Sketch.advance sk
  done;
  check Alcotest.int "empty after [windows] advances" 0 (Sketch.window_count sk);
  check (Alcotest.float 0.0) "empty max" 0.0 (Sketch.window_max sk);
  check (Alcotest.float 0.0) "empty p50" 0.0 (Sketch.quantile sk 0.5)

(* ---------------- frames and spans ---------------- *)

(* A deterministic hub: time only moves when the test says so. *)
let manual_hub () =
  let now = ref 0.0 in
  let hub = Telemetry.create ~ring:64 ~windows:4 ~window_ms:100.0 ~clock:(fun () -> !now) () in
  (hub, now)

let frame_json_roundtrip () =
  let hub, now = manual_hub () in
  Telemetry.emit hub ~req:1 ~kernel:"nn" ~shard:0 Telemetry.Admit;
  Telemetry.observe_latency hub ~outcome:"ok" 2.25;
  Telemetry.observe_latency hub ~outcome:"overloaded" 0.4;
  Telemetry.observe_cycles hub ~kernel:"nn" 11464;
  Telemetry.note_profile_window hub ~kernel:"nn";
  Telemetry.note_refine_accept hub ~kernel:"nn";
  now := 123.0;
  let w = Telemetry.watcher hub in
  Telemetry.note_missed w 2;
  let f = Telemetry.next_frame hub w (Stats.snapshot (Stats.registry ())) in
  let j = Telemetry.frame_to_json f in
  (match Telemetry.frame_of_json j with
  | Error e -> Alcotest.fail ("frame decode: " ^ e)
  | Ok back ->
    check Alcotest.string "frame round-trips bit-identically"
      (Json.to_string j)
      (Json.to_string (Telemetry.frame_to_json back));
    check Alcotest.int "dropped ticks survive" 2 back.Telemetry.f_dropped;
    (match List.assoc_opt "nn" back.Telemetry.f_kernels with
    | None -> Alcotest.fail "kernel row lost"
    | Some k ->
      check Alcotest.int "profile windows" 1 k.Telemetry.k_profile_windows;
      check Alcotest.int "refine accepts" 1 k.Telemetry.k_refine_accepts));
  (* Every taxonomy outcome is present in every frame, zeros included. *)
  check Alcotest.int "all outcomes present"
    (1 + List.length Proto.all_error_kinds)
    (List.length f.Telemetry.f_outcomes)

let span_json_roundtrip () =
  let hub, _ = manual_hub () in
  Telemetry.emit hub ~req:7 ~kernel:"bfs" ~shard:1 ~outcome:"ok"
    ~detail:"14081 cycles" Telemetry.Execute;
  let cursor = Telemetry.subscribe hub in
  Telemetry.emit hub ~req:8 ~kernel:"kmeans" ~shard:0 Telemetry.Refine;
  match Telemetry.poll hub cursor ~max:10 with
  | [ sp ] ->
    (match Telemetry.span_of_json (Telemetry.span_to_json sp) with
    | Error e -> Alcotest.fail ("span decode: " ^ e)
    | Ok back ->
      check Alcotest.string "span round-trips bit-identically"
        (Json.to_string (Telemetry.span_to_json sp))
        (Json.to_string (Telemetry.span_to_json back)))
  | spans -> Alcotest.failf "expected 1 span after subscribe, got %d" (List.length spans)

(* Deltas across a watcher's stream telescope to the final totals — the
   closure property `mesa_cli telemetry-check` gates on. *)
let watcher_deltas_close () =
  let hub, _ = manual_hub () in
  let reg = Stats.registry () in
  let g = Stats.group reg "service" in
  let og = Stats.subgroup g "outcomes" in
  let ok = Stats.counter og "ok" in
  let w = Telemetry.watcher hub in
  let deltas = ref 0 in
  for i = 1 to 4 do
    Stats.add ok i;
    let f = Telemetry.next_frame hub w (Stats.snapshot reg) in
    (match List.assoc_opt "ok" f.Telemetry.f_outcomes with
    | Some r ->
      deltas := !deltas + r.Telemetry.o_delta;
      if i = 4 then
        check Alcotest.int "summed deltas equal the final total" r.Telemetry.o_total !deltas
    | None -> Alcotest.fail "ok row missing")
  done

(* ---------------- stream validation ---------------- *)

(* A four-frame watch stream over a registry whose [service.outcomes.ok]
   and [telemetry.refine_accepts] counters move between frames, plus the
   registry's final snapshot. *)
let recorded_stream () =
  let hub, now = manual_hub () in
  let reg = Stats.registry () in
  let og = Stats.subgroup (Stats.group reg "service") "outcomes" in
  let ok = Stats.counter og "ok" in
  let accepts = Stats.counter (Stats.group reg "telemetry") "refine_accepts" in
  let w = Telemetry.watcher hub in
  let frames =
    List.init 4 (fun i ->
        Stats.add ok (i + 1);
        if i = 2 then Stats.incr accepts;
        now := 100.0 *. float_of_int i;
        Telemetry.next_frame hub w (Stats.snapshot reg))
  in
  (frames, Stats.snapshot reg)

(* [r] must fail with a message containing [needle]. *)
let rejected what needle r =
  let contains s =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = needle || go (i + 1))
    in
    go 0
  in
  match r with
  | Ok () -> Alcotest.failf "%s accepted" what
  | Error fs ->
    if not (List.exists contains fs) then
      Alcotest.failf "%s: no %S failure in [%s]" what needle (String.concat "; " fs)

let check_accepts_clean_stream () =
  let frames, stats = recorded_stream () in
  match Telemetry.check ~stats ~require:[ "telemetry.refine_accepts" ] frames with
  | Ok () -> ()
  | Error fs -> Alcotest.failf "clean stream rejected: %s" (String.concat "; " fs)

let check_rejects_bad_streams () =
  let frames, stats = recorded_stream () in
  let patch i f = List.mapi (fun j fr -> if j = i then f fr else fr) frames in
  rejected "seq gap" "expected" (Telemetry.check (List.filteri (fun i _ -> i <> 1) frames));
  rejected "clock going backwards" "at_ms went backwards"
    (Telemetry.check (patch 2 (fun f -> { f with Telemetry.f_at_ms = 0.0 })));
  rejected "forged delta" "summed deltas"
    (Telemetry.check
       (patch 1 (fun f ->
            {
              f with
              Telemetry.f_outcomes =
                List.map
                  (fun (name, r) ->
                    (name, { r with Telemetry.o_delta = r.Telemetry.o_delta + 1 }))
                  f.Telemetry.f_outcomes;
            })));
  rejected "stream disagreeing with the stats snapshot" "stats snapshot"
    (Telemetry.check ~stats (List.filteri (fun i _ -> i < 3) frames));
  rejected "unmet gate" "gate: telemetry.oracle_refreshes"
    (Telemetry.check ~stats ~require:[ "telemetry.oracle_refreshes" ] frames);
  rejected "empty stream" "no frames" (Telemetry.check [])

(* ---------------- slow-consumer shedding ---------------- *)

let ring_sheds_forward () =
  let hub, _ = manual_hub () in
  (* ring = 64: subscribe, then overrun it. *)
  let cursor = Telemetry.subscribe hub in
  for i = 0 to 199 do
    Telemetry.emit hub ~req:i Telemetry.Admit
  done;
  let spans = Telemetry.poll hub cursor ~max:1000 in
  check Alcotest.int "only the retained suffix is delivered" 64 (List.length spans);
  check Alcotest.int "shed count is exact" 136 (Telemetry.cursor_dropped cursor);
  (* Delivered spans keep their original, contiguous sequence numbers. *)
  List.iteri
    (fun i sp ->
      check Alcotest.int
        (Printf.sprintf "seq at position %d" i)
        (136 + i) sp.Telemetry.sp_seq)
    spans;
  check (Alcotest.list Alcotest.int) "a drained cursor yields nothing" []
    (List.map (fun s -> s.Telemetry.sp_seq) (Telemetry.poll hub cursor ~max:10))

(* ---------------- the service-level contracts ---------------- *)

let exec_ok svc id kernel =
  match Service.execute svc (Proto.run_request ~id kernel) with
  | Proto.Ok_run b -> b
  | Proto.Err e -> Alcotest.failf "%s: %s" kernel e.Proto.message
  | _ -> Alcotest.fail "unexpected body"

let base_config =
  {
    Service.default_config with
    Service.shards = 1;
    shard_pes = 64;
    jobs = 1;
  }

(* Armed telemetry is pure observation: the first response of a profiling
   service (every run profiled) is bit-identical to an unprofiled one. *)
let telemetry_on_off_bit_identical () =
  let run profile_window =
    let svc = Service.create ~config:{ base_config with Service.profile_window } () in
    Fun.protect
      ~finally:(fun () -> Service.shutdown svc)
      (fun () -> exec_ok svc 1 "nn")
  in
  let off = run None in
  let on = run (Some 1) in
  check Alcotest.int "cycles identical" off.Proto.cycles on.Proto.cycles;
  check Alcotest.int "memory checksum identical" off.Proto.mem_checksum
    on.Proto.mem_checksum;
  check Alcotest.int "offloads identical" off.Proto.offloads on.Proto.offloads

(* The feedback loop end to end: a profiled run's measured oracles drive a
   background refine whose accepted placement the service installs as its
   own override — and the re-executed kernel never got slower (kmeans on
   M-64 has known refinement headroom, so an accept must actually land).
   The refinement is the service's: a later [Runner.placement_of] still
   returns the mapper's placement. *)
let oracle_fed_refine_never_regresses () =
  let mapped () = Runner.placement_of ~grid:(Grid.of_pe_count 64) (Workloads.find "kmeans") in
  let before = mapped () in
  let config = { base_config with Service.profile_window = Some 1 } in
  let svc = Service.create ~config () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown svc)
    (fun () ->
      let first = exec_ok svc 1 "kmeans" in
      (* The profiled run queued a refine; wait for the refiner to drain.
         One kernel was enqueued, so the backlog never counts more than
         one job, queued or running. *)
      let deadline = Unix.gettimeofday () +. 60.0 in
      let backlog () =
        let n = Service.refine_backlog svc in
        if n > 1 then Alcotest.failf "backlog %d exceeds the 1 kernel enqueued" n;
        n
      in
      while backlog () > 0 && Unix.gettimeofday () < deadline do
        Thread.delay 0.02
      done;
      check Alcotest.int "refiner drained" 0 (Service.refine_backlog svc);
      let snap = Service.stats svc in
      let stat p = Option.value ~default:0 (Stats.find_int snap p) in
      check Alcotest.bool "a profiling window was captured" true
        (stat "telemetry.profile_windows" >= 1);
      check Alcotest.bool "oracles were handed to the refiner" true
        (stat "telemetry.oracle_refreshes" >= 1);
      check Alcotest.bool "the refinement was confirmed and installed" true
        (stat "telemetry.refine_accepts" >= 1);
      let second = exec_ok svc 2 "kmeans" in
      check Alcotest.bool
        (Printf.sprintf "never regress: %d <= %d" second.Proto.cycles
           first.Proto.cycles)
        true
        (second.Proto.cycles <= first.Proto.cycles);
      check Alcotest.int "results unchanged by the override" first.Proto.mem_checksum
        second.Proto.mem_checksum;
      check Alcotest.bool "placement_of keeps the mapper's placement" true
        (mapped () = before))

(* ---------------- rendering and parsing ---------------- *)

let quantiles n p50 p99 mx =
  { Telemetry.q_count = n; q_p50 = p50; q_p90 = p99; q_p99 = p99; q_max = mx }

let sample_frame ~kernels =
  {
    Telemetry.f_seq = 3;
    f_at_ms = 1234.4;
    f_dropped = 1;
    f_outcomes =
      [ ("ok", { Telemetry.o_total = 7; o_delta = 2; o_window = quantiles 5 1.5 2.25 3.0 }) ];
    f_kernels =
      (if kernels then
         [ ( "nn",
             { Telemetry.k_window = quantiles 5 11464.0 11464.0 11464.0;
               k_profile_windows = 1; k_refine_accepts = 2 } ) ]
       else []);
    f_deltas = [ ("service.admitted", 2) ];
    f_totals = [ ("service.admitted", 7); ("telemetry.refine_accepts", 2) ];
  }

let render_frame_lines () =
  let lines f = String.split_on_char '\n' (Telemetry.render_frame f) in
  check Alcotest.(list string) "header, outcome and kernel rows, then greppable totals"
    [
      "mesad telemetry \xe2\x80\x94 frame 3  t=1234 ms  shed-ticks=1";
      "outcome                   total  delta | window      n    p50 ms    p99 ms    max ms";
      "  ok                          7      2 |             5      1.50      2.25      3.00";
      "kernel                 | window      n  p50 cycles  max cycles  profiled  refined";
      "  nn                   |             5       11464       11464         1        2";
      "totals:";
      "  service.admitted 7";
      "  telemetry.refine_accepts 2";
      "";
    ]
    (lines (sample_frame ~kernels:true));
  check Alcotest.bool "no kernel table without kernel rows" false
    (List.exists (String.starts_with ~prefix:"kernel ") (lines (sample_frame ~kernels:false)))

let parse_frames_reports_bad_lines () =
  let line = Json.to_string ~indent:0 (Telemetry.frame_to_json (sample_frame ~kernels:true)) in
  let frames, errors = Telemetry.parse_frames [ line; ""; "{ nope"; "  "; line ] in
  check Alcotest.int "good lines decode" 2 (List.length frames);
  match errors with
  | [ e ] ->
    check Alcotest.bool "error counts non-blank lines" true
      (String.starts_with ~prefix:"unparseable frame: line 2: " e)
  | _ -> Alcotest.failf "expected one error, got %d" (List.length errors)

let suites =
  [
    ( "telemetry",
      [
        QCheck_alcotest.to_alcotest qcheck_quantile_bounds;
        Alcotest.test_case "sketch ring window" `Quick sketch_ring_window;
        Alcotest.test_case "frame json roundtrip" `Quick frame_json_roundtrip;
        Alcotest.test_case "span json roundtrip" `Quick span_json_roundtrip;
        Alcotest.test_case "watcher delta closure" `Quick watcher_deltas_close;
        Alcotest.test_case "check accepts a clean stream" `Quick
          check_accepts_clean_stream;
        Alcotest.test_case "check rejects gaps, clock, forgery, gates" `Quick
          check_rejects_bad_streams;
        Alcotest.test_case "ring sheds forward" `Quick ring_sheds_forward;
        Alcotest.test_case "frame renders for top" `Quick render_frame_lines;
        Alcotest.test_case "parse_frames reports bad lines" `Quick
          parse_frames_reports_bad_lines;
        Alcotest.test_case "telemetry on/off bit-identity" `Slow
          telemetry_on_off_bit_identical;
        Alcotest.test_case "oracle-fed refine never regresses" `Slow
          oracle_fed_refine_never_regresses;
      ] );
  ]
