(* The mesad service layer: wire-protocol codec (golden taxonomy pin,
   qcheck roundtrips, unknown-field tolerance), circuit breaker and
   backoff state machines, and the live service behind a temp unix
   socket — admission control, deadlines, chaos recovery, graceful
   drain and the seeded loadgen determinism digest. *)

let check = Alcotest.check

(* ---------------- taxonomy golden pin ---------------- *)

(* The closed error taxonomy, pinned: changing any string (or the set) is
   a protocol revision, not a refactor. Extend deliberately or not at
   all. *)
let taxonomy_golden () =
  check
    (Alcotest.list Alcotest.string)
    "taxonomy strings are pinned"
    [
      "bad_request";
      "deadline_exceeded";
      "overloaded";
      "fabric_quarantined";
      "internal";
    ]
    (List.map Proto.error_kind_to_string Proto.all_error_kinds);
  List.iter
    (fun k ->
      match Proto.error_kind_of_string (Proto.error_kind_to_string k) with
      | Ok k' when k' = k -> ()
      | _ -> Alcotest.fail "error_kind_of_string does not invert to_string")
    Proto.all_error_kinds;
  (match Proto.error_kind_of_string "timeout" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind must not decode")

(* ---------------- codec roundtrips (qcheck) ---------------- *)

let gen_run_request =
  QCheck.Gen.(
    let* id = int_bound 10_000 in
    let* kernel = oneofl [ "nn"; "kmeans"; "bfs"; "hotspot"; "x y\"z" ] in
    let* deadline_ms =
      oneof [ return None; map (fun f -> Some (Float.abs f +. 0.5)) float ]
    in
    let* inject =
      oneofl [ None; Some "transient@40"; Some "permanent@80,link@9" ]
    in
    let* fault_seed = int_bound 1_000_000 in
    let* allow_fallback = bool in
    return
      {
        Proto.id;
        kernel;
        deadline_ms;
        inject;
        fault_seed;
        allow_fallback;
      })

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Proto.Run r) gen_run_request;
        map (fun id -> Proto.Get_stats id) (int_bound 1000);
        map (fun id -> Proto.Ping id) (int_bound 1000);
      ])

let arb_request = QCheck.make ~print:Proto.request_to_line gen_request

let qcheck_request_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Proto request json roundtrip"
    arb_request (fun req ->
      match Proto.request_of_json (Proto.request_to_json req) with
      | Ok req' -> req' = req
      | Error _ -> false)

let gen_body =
  QCheck.Gen.(
    oneof
      [
        ( let* kernel = oneofl [ "nn"; "bfs" ] in
          let* cycles = int_bound 1_000_000 in
          let* offloads = int_bound 16 in
          let* mem_checksum = int_bound max_int in
          let* site = oneofl [ Proto.Fabric; Proto.Cpu ] in
          let* shard = if site = Proto.Cpu then return (-1) else int_bound 7 in
          let* rerouted = bool in
          let* retries = int_bound 3 in
          let* quarantines = int_bound 3 in
          let* faults_detected = int_bound 5 in
          let* latency_ms = map Float.abs float in
          return
            (Proto.Ok_run
               {
                 Proto.kernel;
                 cycles;
                 offloads;
                 mem_checksum;
                 shard;
                 site;
                 rerouted;
                 retries;
                 quarantines;
                 faults_detected;
                 latency_ms;
               }) );
        ( let* kind = oneofl Proto.all_error_kinds in
          let* message = oneofl [ ""; "boom"; "shard 3: \"quoted\"\n" ] in
          return (Proto.Err { Proto.kind; message }) );
        return Proto.Pong;
        return (Proto.Stats_dump (Json.Assoc [ ("x", Json.Int 3) ]));
      ])

let gen_response =
  QCheck.Gen.(
    let* rsp_id = int_bound 10_000 in
    let* body = gen_body in
    return { Proto.rsp_id; body })

let arb_response = QCheck.make ~print:Proto.response_to_line gen_response

let qcheck_response_roundtrip =
  QCheck.Test.make ~count:200 ~name:"Proto response json roundtrip"
    arb_response (fun rsp ->
      (* Through the actual wire format (one line of text), not just the
         Json.t tree. *)
      match
        Result.bind
          (Json.of_string (Proto.response_to_line rsp))
          Proto.response_of_json
      with
      | Ok rsp' -> rsp' = rsp
      | Error _ -> false)

(* ---------------- unknown-field tolerance ---------------- *)

let unknown_fields_tolerated () =
  (* A request from a newer client: extra fields everywhere, fancier op
     spelling absent (missing op means run). *)
  let line =
    {|{"id":7,"kernel":"nn","priority":"high","tags":[1,2],"fault_seed":9,"nested":{"a":true}}|}
  in
  (match Result.bind (Json.of_string line) Proto.request_of_json with
  | Ok (Proto.Run r) ->
    check Alcotest.int "id" 7 r.Proto.id;
    check Alcotest.string "kernel" "nn" r.Proto.kernel;
    check Alcotest.int "fault_seed" 9 r.Proto.fault_seed;
    check Alcotest.bool "fallback defaults true" true r.Proto.allow_fallback
  | Ok _ -> Alcotest.fail "decoded to the wrong op"
  | Error e -> Alcotest.fail ("unknown fields must be ignored: " ^ e));
  (* A response from a newer daemon likewise. *)
  let line =
    {|{"id":3,"ok":{"kernel":"nn","cycles":5,"offloads":1,"mem_checksum":2,"shard":0,"site":"fabric","power_mw":123},"took_ns":88}|}
  in
  (match Result.bind (Json.of_string line) Proto.response_of_json with
  | Ok { Proto.rsp_id = 3; body = Proto.Ok_run b } ->
    check Alcotest.int "cycles" 5 b.Proto.cycles
  | Ok _ -> Alcotest.fail "decoded to the wrong body"
  | Error e -> Alcotest.fail ("unknown fields must be ignored: " ^ e));
  (* But a malformed known field is still an error, not a default. *)
  match
    Result.bind
      (Json.of_string {|{"id":1,"kernel":"nn","deadline_ms":-5}|})
      Proto.request_of_json
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-positive deadline must not decode"

(* ---------------- breaker state machine ---------------- *)

let breaker_cfg =
  { Breaker.trip_threshold = 2; cooldown = 3; max_cooldown = 12 }

let breaker_trips_and_recloses () =
  let b = Breaker.create breaker_cfg in
  check Alcotest.bool "starts closed" true (Breaker.state b = Breaker.Closed);
  (* One fault is below threshold; a clean run resets the count. *)
  (match Breaker.acquire b with Some `Route -> () | _ -> Alcotest.fail "route");
  ignore (Breaker.record b ~probe:false ~ok:false);
  ignore (Breaker.record b ~probe:false ~ok:true);
  ignore (Breaker.record b ~probe:false ~ok:false);
  check Alcotest.bool "still closed below threshold" true
    (Breaker.state b = Breaker.Closed);
  (* Second consecutive fault trips. *)
  (match Breaker.record b ~probe:false ~ok:false with
  | Breaker.Tripped -> ()
  | _ -> Alcotest.fail "expected Tripped");
  check Alcotest.bool "open admits nothing" true (Breaker.acquire b = None);
  (* Cooldown is measured in ticks; after [cooldown] the breaker goes
     half-open and grants exactly one probe. *)
  Breaker.tick b;
  Breaker.tick b;
  check Alcotest.bool "still open mid-cooldown" true (Breaker.acquire b = None);
  Breaker.tick b;
  (match Breaker.acquire b with
  | Some `Probe -> ()
  | _ -> Alcotest.fail "expected the half-open probe");
  check Alcotest.bool "only one probe" true (Breaker.acquire b = None);
  (match Breaker.record b ~probe:true ~ok:true with
  | Breaker.Reclosed -> ()
  | _ -> Alcotest.fail "clean probe must reclose");
  check Alcotest.bool "reclosed" true (Breaker.state b = Breaker.Closed)

let breaker_reopen_doubles_cooldown () =
  let b = Breaker.create breaker_cfg in
  let trip () =
    for _ = 1 to breaker_cfg.Breaker.trip_threshold do
      ignore (Breaker.acquire b);
      ignore (Breaker.record b ~probe:false ~ok:false)
    done
  in
  let ticks_until_half_open () =
    let n = ref 0 in
    while Breaker.state b = Breaker.Open do
      Breaker.tick b;
      incr n
    done;
    !n
  in
  trip ();
  check Alcotest.int "first cooldown" 3 (ticks_until_half_open ());
  ignore (Breaker.acquire b);
  (match Breaker.record b ~probe:true ~ok:false with
  | Breaker.Reopened -> ()
  | _ -> Alcotest.fail "faulted probe must reopen");
  check Alcotest.int "doubled" 6 (ticks_until_half_open ());
  ignore (Breaker.acquire b);
  ignore (Breaker.record b ~probe:true ~ok:false);
  check Alcotest.int "doubled again" 12 (ticks_until_half_open ());
  ignore (Breaker.acquire b);
  ignore (Breaker.record b ~probe:true ~ok:false);
  check Alcotest.int "capped at max_cooldown" 12 (ticks_until_half_open ())

(* ---------------- backoff ---------------- *)

let backoff_seeded_and_bounded () =
  let seq seed =
    let b = Backoff.create ~base_ms:1.0 ~cap_ms:8.0 ~seed in
    List.init 6 (fun _ -> Backoff.next_ms b)
  in
  check (Alcotest.list (Alcotest.float 0.0)) "same seed, same schedule"
    (seq 42) (seq 42);
  check Alcotest.bool "different seeds diverge" true (seq 1 <> seq 2);
  List.iteri
    (fun i d ->
      if d < 0.0 || d > 8.0 then
        Alcotest.fail
          (Printf.sprintf "draw %d = %f outside [0, cap]" i d))
    (seq 7)

(* ---------------- the live service ---------------- *)

(* Small, fast, deterministic-friendly service: 2 shards of 64 PEs, a
   hair-trigger breaker so chaos runs actually trip it. *)
let test_service_config =
  {
    Service.default_config with
    Service.shards = 2;
    shard_pes = 64;
    jobs = 2;
    breaker = { Breaker.trip_threshold = 1; cooldown = 2; max_cooldown = 16 };
  }

let with_service ?(config = test_service_config) f =
  let svc = Service.create ~config () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

(* The dense transient storm that exhausts the controller's consecutive
   retry budget and quarantines the shard mid-run. *)
let storm =
  "transient@40,transient@90,transient@140,transient@190,transient@240,\
   transient@290,transient@340,transient@390,transient@440,transient@490"

let service_validates_requests () =
  with_service (fun svc ->
      (match Service.execute svc (Proto.run_request ~id:1 "no-such-kernel") with
      | Proto.Err { Proto.kind = Proto.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "unknown kernel must be bad_request");
      match
        Service.execute svc
          (Proto.run_request ~id:2 ~inject:"garbage@@" "nn")
      with
      | Proto.Err { Proto.kind = Proto.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "malformed inject must be bad_request")

(* A config that would fail every request is refused up front: a
   non-positive default deadline expires every request, and an invalid
   backoff pair would raise after admission and leak the in-flight slot. *)
let service_rejects_bad_timing_config () =
  List.iter
    (fun (what, config, msg) ->
      match Service.create ~config () with
      | svc ->
        Service.shutdown svc;
        Alcotest.fail (what ^ " accepted")
      | exception Invalid_argument m -> check Alcotest.string what msg m)
    [
      ( "negative default deadline",
        { test_service_config with Service.default_deadline_ms = Some (-5.0) },
        "Service.create: default_deadline_ms must be > 0" );
      ( "zero default deadline",
        { test_service_config with Service.default_deadline_ms = Some 0.0 },
        "Service.create: default_deadline_ms must be > 0" );
      ( "zero backoff base",
        { test_service_config with Service.backoff_base_ms = 0.0 },
        "Service.create: backoff_base_ms must be > 0" );
      ( "backoff cap below base",
        { test_service_config with Service.backoff_base_ms = 5.0; backoff_cap_ms = 2.0 },
        "Service.create: backoff_cap_ms must be >= backoff_base_ms" );
    ]

let service_runs_and_counts () =
  with_service (fun svc ->
      (match Service.execute svc (Proto.run_request ~id:1 "nn") with
      | Proto.Ok_run b ->
        check Alcotest.string "fabric site" "fabric"
          (Proto.site_to_string b.Proto.site);
        check Alcotest.bool "positive cycles" true (b.Proto.cycles > 0)
      | _ -> Alcotest.fail "clean run must succeed");
      let snap = Service.stats svc in
      check (Alcotest.option Alcotest.int) "ok counted" (Some 1)
        (Stats.find_int snap "service.outcomes.ok");
      check (Alcotest.option Alcotest.int) "no internal errors" (Some 0)
        (Stats.find_int snap "service.outcomes.internal"))

(* The service registers its counters in source order, so the snapshot
   and [--stats-out] list them the way [Service.make_counters] reads. *)
let counters_in_source_order () =
  with_service (fun svc ->
      let names = List.map fst (Stats.to_assoc (Service.stats svc)) in
      let index name =
        let rec go i = function
          | [] -> Alcotest.failf "%s not in the snapshot" name
          | n :: _ when n = name -> i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 names
      in
      List.iter
        (fun (first, later) ->
          check Alcotest.bool
            (Printf.sprintf "%s before %s" first later)
            true
            (index first < index later))
        [
          ("service.admitted", "service.shed");
          ("service.outcomes.ok", "service.outcomes.internal");
          ("service.exec.fabric", "service.exec.abandoned");
          ("telemetry.profile_windows", "telemetry.refine_rejects");
        ])

let deadline_resolves_to_taxonomy () =
  with_service (fun svc ->
      (* 2 worker domains: execution is asynchronous, so a microscopic
         deadline elapses while the run (milliseconds) is in flight, and
         the run settles after it however late the waiter wakes. *)
      (match
         Service.execute svc (Proto.run_request ~id:1 ~deadline_ms:0.01 "nn")
       with
      | Proto.Err { Proto.kind = Proto.Deadline_exceeded; _ } -> ()
      | _ -> Alcotest.fail "must resolve to deadline_exceeded");
      let snap = Service.stats svc in
      check (Alcotest.option Alcotest.int) "counted once" (Some 1)
        (Stats.find_int snap "service.outcomes.deadline_exceeded"))

let draining_sheds_with_overloaded () =
  with_service (fun svc ->
      Service.begin_drain svc;
      (match Service.execute svc (Proto.run_request ~id:1 "nn") with
      | Proto.Err { Proto.kind = Proto.Overloaded; _ } -> ()
      | _ -> Alcotest.fail "draining service must shed with overloaded");
      let snap = Service.drain svc in
      check (Alcotest.option Alcotest.int) "shed counted" (Some 1)
        (Stats.find_int snap "service.shed"))

let queue_full_sheds_with_overloaded () =
  let config = { test_service_config with Service.queue_depth = 1 } in
  (* Fill the single queue slot with a request whose awaiter gives up
     immediately; the worker task keeps the slot occupied. A worker that
     had not started by then abandons the request instead and frees the
     slot at once, and one that already finished its run (a few
     milliseconds, which a loaded machine can spend between the two
     requests) has freed it too; such a round shows nothing about
     shedding, so it is run again (the abandon counter and the queue depth
     read before the second request tell them apart). A worker that
     finished nn before its awaiter even started waiting resolves the
     first request [Ok_run]; that round is run again too. *)
  let rec round n =
    let outcome =
      with_service ~config (fun svc ->
          match Service.execute svc (Proto.run_request ~id:1 ~deadline_ms:0.01 "nn") with
          | Proto.Ok_run _ -> None
          | Proto.Err { Proto.kind = Proto.Deadline_exceeded; _ } ->
            let depth = Stats.find_int (Service.stats svc) "service.queue.depth" in
            let second = Service.execute svc (Proto.run_request ~id:2 "nn") in
            let snap = Service.drain svc in
            Some (second, Stats.find_int snap "service.exec.abandoned", depth = Some 1)
          | _ -> Alcotest.fail "expected deadline_exceeded")
    in
    match outcome with
    | Some (Proto.Err { Proto.kind = Proto.Overloaded; _ }, _, _) -> ()
    | None when n < 20 -> round (n + 1)
    | Some (_, Some a, _) when a > 0 && n < 20 -> round (n + 1)
    | Some (_, _, false) when n < 20 -> round (n + 1)
    | _ -> Alcotest.fail "full queue must shed with overloaded"
  in
  round 1

let chaos_trips_and_recovers () =
  with_service (fun svc ->
      (* A storm on the first request quarantines mid-run and trips that
         shard's breaker (threshold 1); the service retries clean and the
         request still succeeds. *)
      (match
         Service.execute svc (Proto.run_request ~id:1 ~inject:storm "nn")
       with
      | Proto.Ok_run _ -> ()
      | _ -> Alcotest.fail "storm run must still succeed via retry");
      (* Clean traffic ticks the open breaker through cooldown into its
         half-open probe, which recloses it. *)
      for i = 2 to 6 do
        match Service.execute svc (Proto.run_request ~id:i "nn") with
        | Proto.Ok_run _ -> ()
        | _ -> Alcotest.fail "clean run must succeed"
      done;
      let snap = Service.stats svc in
      let counter name =
        Option.value ~default:0 (Stats.find_int snap name)
      in
      check Alcotest.bool "breaker tripped" true
        (counter "service.breaker.trips" > 0);
      check Alcotest.bool "half-open probe reclosed" true
        (counter "service.breaker.recloses" > 0);
      check (Alcotest.option Alcotest.int) "no internal errors" (Some 0)
        (Stats.find_int snap "service.outcomes.internal");
      check (Alcotest.option Alcotest.int) "every request resolved ok"
        (Some 6)
        (Stats.find_int snap "service.outcomes.ok"))

let fallback_forbidden_is_fabric_quarantined () =
  let config =
    {
      test_service_config with
      Service.shards = 1;
      breaker =
        { Breaker.trip_threshold = 1; cooldown = 50; max_cooldown = 50 };
      max_retries = 0;
    }
  in
  with_service ~config (fun svc ->
      (* Trip the only shard... *)
      (match
         Service.execute svc (Proto.run_request ~id:1 ~inject:storm "nn")
       with
      | Proto.Ok_run _ -> ()
      | _ -> Alcotest.fail "storm run still succeeds (degraded)");
      (* ...then a request that forbids CPU fallback has nowhere to go. *)
      (match
         Service.execute svc
           (Proto.run_request ~id:2 ~allow_fallback:false "nn")
       with
      | Proto.Err { Proto.kind = Proto.Fabric_quarantined; _ } -> ()
      | _ -> Alcotest.fail "must resolve to fabric_quarantined");
      (* ...while one that allows it lands on the CPU. *)
      match Service.execute svc (Proto.run_request ~id:3 "nn") with
      | Proto.Ok_run b ->
        check Alcotest.string "cpu fallback" "cpu"
          (Proto.site_to_string b.Proto.site)
      | _ -> Alcotest.fail "fallback run must succeed")

(* ---------------- the daemon over a real socket ---------------- *)

let temp_socket () =
  let path = Filename.temp_file "mesad-test" ".sock" in
  Sys.remove path;
  path

let with_daemon ?(config = test_service_config) f =
  let socket = temp_socket () in
  let d = Mesad.start ~service_config:config ~socket () in
  Fun.protect ~finally:(fun () -> ignore (Mesad.stop d)) (fun () -> f d socket)

let send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  ignore (Unix.write fd b 0 (Bytes.length b))

let read_line_fd fd =
  let buf = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    match Unix.read fd one 0 1 with
    | 0 -> None
    | _ ->
      if Bytes.get one 0 = '\n' then Some (Buffer.contents buf)
      else begin
        Buffer.add_char buf (Bytes.get one 0);
        go ()
      end
  in
  go ()

let daemon_answers_and_salvages_ids () =
  with_daemon (fun _ socket ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          send_line fd {|{"op":"ping","id":41}|};
          (match
             Option.bind (read_line_fd fd) (fun l ->
                 Result.to_option
                   (Result.bind (Json.of_string l) Proto.response_of_json))
           with
          | Some { Proto.rsp_id = 41; body = Proto.Pong } -> ()
          | _ -> Alcotest.fail "expected a pong with the caller's id");
          (* Unparseable line: a structured bad_request, never a hang or
             a dropped connection. *)
          send_line fd "this is not json";
          (match
             Option.bind (read_line_fd fd) (fun l ->
                 Result.to_option
                   (Result.bind (Json.of_string l) Proto.response_of_json))
           with
          | Some { Proto.body = Proto.Err e; _ } ->
            check Alcotest.string "bad_request" "bad_request"
              (Proto.error_kind_to_string e.Proto.kind)
          | _ -> Alcotest.fail "expected a bad_request response");
          (* Malformed request with a recoverable id: the error response
             carries the caller's id. *)
          send_line fd {|{"id":77,"op":"warp"}|};
          match
            Option.bind (read_line_fd fd) (fun l ->
                Result.to_option
                  (Result.bind (Json.of_string l) Proto.response_of_json))
          with
          | Some { Proto.rsp_id = 77; body = Proto.Err _ } -> ()
          | _ -> Alcotest.fail "salvaged id must come back on the error"))

let drain_loses_no_inflight_request () =
  with_daemon (fun d socket ->
      let got = ref None in
      let client =
        Thread.create
          (fun () ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            send_line fd
              (Proto.request_to_line
                 (Proto.Run (Proto.run_request ~id:9 "nn")));
            got :=
              Option.bind (read_line_fd fd) (fun l ->
                  Result.to_option
                    (Result.bind (Json.of_string l) Proto.response_of_json));
            Unix.close fd)
          ()
      in
      (* Let the request reach admission, then drain concurrently. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while
        Option.value ~default:0
          (Stats.find_int (Service.stats (Mesad.service d)) "service.admitted")
        = 0
        && Unix.gettimeofday () < deadline
      do
        Thread.yield ()
      done;
      ignore (Mesad.stop d);
      Thread.join client;
      match !got with
      | Some { Proto.rsp_id = 9; body = Proto.Ok_run _ } -> ()
      | Some { Proto.body = Proto.Err e; _ } ->
        Alcotest.fail
          ("in-flight request resolved to an error across drain: "
          ^ Proto.error_kind_to_string e.Proto.kind)
      | _ -> Alcotest.fail "in-flight request lost across drain")

(* ---------------- seeded loadgen determinism (satellite) ---------------- *)

let loadgen_digest_deterministic () =
  (* Same seed, concurrency 1, chaos on: per-request results (outcome,
     cycles, checksum, site, shard, retries, quarantines — latency
     excluded) must be bit-identical across two fresh daemons. *)
  let run_once () =
    let socket = temp_socket () in
    let d = Mesad.start ~service_config:test_service_config ~socket () in
    Fun.protect
      ~finally:(fun () -> ignore (Mesad.stop d))
      (fun () ->
        Loadgen.run
          {
            Loadgen.default_config with
            Loadgen.socket;
            requests = 6;
            concurrency = 1;
            seed = 11;
            kernels = [ "nn" ];
            chaos = true;
            chaos_rate = 0.5;
            injects = [ storm ];
            no_fallback_rate = 0.0;
          })
  in
  let a = run_once () in
  let b = run_once () in
  check Alcotest.int "all requests answered" 6 a.Loadgen.completed;
  check Alcotest.int "no protocol errors" 0 a.Loadgen.protocol_errors;
  check Alcotest.string "digest is bit-identical across runs"
    (Printf.sprintf "%016x" a.Loadgen.digest)
    (Printf.sprintf "%016x" b.Loadgen.digest);
  (* And the stream itself is a pure function of the seed. *)
  let cfg = { Loadgen.default_config with Loadgen.seed = 11 } in
  check Alcotest.bool "request stream deterministic" true
    (List.init 20 (Loadgen.request_at cfg)
    = List.init 20 (Loadgen.request_at cfg))

let rejected_config_binds_nothing () =
  let socket = temp_socket () in
  let config = { test_service_config with Service.shards = 0 } in
  (match Mesad.start ~service_config:config ~socket () with
  | d ->
    ignore (Mesad.stop d);
    Alcotest.fail "shards = 0 accepted"
  | exception Invalid_argument _ -> ());
  check Alcotest.bool "no socket file left behind" false (Sys.file_exists socket)

let subscribe_streams_frames () =
  with_daemon (fun _ socket ->
      let watch = Proto.Watch (Proto.watch_request ~interval_ms:5.0 ~frames:3 ~id:1 ()) in
      let seen = ref 0 in
      let on_body = function
        | Proto.Frame _ -> Ok (incr seen)
        | _ -> Error "not a frame"
      in
      check Alcotest.(result int string) "a finite watch ends after its frames" (Ok 3)
        (Loadgen.subscribe ~socket watch ~on_body);
      check Alcotest.int "every frame reached the handler" 3 !seen;
      check Alcotest.(result int string) "a failing handler stops the stream"
        (Error "stop") (Loadgen.subscribe ~socket watch ~on_body:(fun _ -> Error "stop"));
      let missing = temp_socket () in
      match Loadgen.subscribe ~socket:missing watch ~on_body with
      | Error e ->
        check Alcotest.bool "connect failure names the socket" true
          (String.starts_with ~prefix:(missing ^ ": ") e)
      | Ok _ -> Alcotest.fail "subscribed to a missing socket")

let loadgen_result ?(internal = 0) ?(protocol_errors = 0) ?(trips = 0) ?(recloses = 0) () =
  let counters = [ ("trips", Json.Int trips); ("recloses", Json.Int recloses) ] in
  {
    Loadgen.sent = 4;
    completed = 4;
    closed_unanswered = 0;
    protocol_errors;
    outcomes = [ ("ok", 4 - internal); ("internal", internal) ];
    outcome_latency = [];
    ok_fabric = 4 - internal;
    ok_cpu = 0;
    rerouted = 0;
    retried = 0;
    quarantines_observed = 0;
    p50_ms = 1.0;
    p99_ms = 1.0;
    mean_ms = 1.0;
    max_ms = 1.0;
    wall_s = 1.0;
    throughput_rps = 4.0;
    digest = 0;
    service_stats =
      Some (Json.Assoc [ ("service", Json.Assoc [ ("breaker", Json.Assoc counters) ]) ]);
  }

let loadgen_gates () =
  let gates ?(zero = true) ?(recoveries = true) r =
    Loadgen.gate_failures ~require_zero_internal:zero ~require_recoveries:recoveries r
  in
  check Alcotest.(list string) "healthy run passes both gates" []
    (gates (loadgen_result ~trips:2 ~recloses:1 ()));
  check Alcotest.(list string) "gates off never fail" []
    (gates ~zero:false ~recoveries:false (loadgen_result ~internal:1 ()));
  check Alcotest.(list string) "internal errors fail the zero-internal gate"
    [ "gate: internal=1 protocol_errors=2 closed_unanswered=0 (all must be 0)" ]
    (gates ~recoveries:false (loadgen_result ~internal:1 ~protocol_errors:2 ()));
  check Alcotest.(list string) "trips without recloses fail the recovery gate"
    [ "gate: breaker trips=3 recloses=0 (both must be > 0)" ]
    (gates ~zero:false (loadgen_result ~trips:3 ()));
  let gone = { (loadgen_result ()) with Loadgen.service_stats = None; closed_unanswered = 1 } in
  check Alcotest.int "both gates report" 2 (List.length (gates gone))

(* ---------------- shard isolation under concurrency ---------------- *)

(* Two threads hammering the service concurrently must reproduce the serial
   answers bit-for-bit. This is the event engine's shard-locality contract:
   its memo state (arrival caches, store table) is per-execution, its
   contention-table scratch is claimed under the domain-local pool's lock,
   and the memory/hierarchy pools hand a buffer to exactly one run at a
   time — so one in-flight request can never perturb another's cycles or
   memory image. A violation shows up here as a checksum or cycle count
   that differs from the serial oracle. *)
let concurrent_shards_match_serial () =
  with_service (fun svc ->
      let kernels = [| "nn"; "kmeans"; "bfs"; "hotspot" |] in
      let exec ~id name =
        match Service.execute svc (Proto.run_request ~id name) with
        | Proto.Ok_run b -> (name, b.Proto.cycles, b.Proto.mem_checksum, b.Proto.offloads)
        | _ -> Alcotest.failf "%s: clean run must succeed" name
      in
      (* Serial oracle: one answer per kernel. *)
      let oracle =
        Array.to_list kernels |> List.mapi (fun i name -> (name, exec ~id:i name))
      in
      let per_thread = 8 in
      let slots = Array.make 2 [] in
      let threads =
        List.init 2 (fun tid ->
            Thread.create
              (fun () ->
                slots.(tid) <-
                  List.init per_thread (fun j ->
                      let i = (tid * per_thread) + j in
                      exec ~id:(100 + i) kernels.(i mod Array.length kernels)))
              ())
      in
      List.iter Thread.join threads;
      List.iter
        (fun ((name, cycles, checksum, offloads) as got) ->
          match List.assoc_opt name oracle with
          | None -> Alcotest.failf "unexpected kernel %s" name
          | Some (_, c, k, o) ->
            if (cycles, checksum, offloads) <> (c, k, o) then
              Alcotest.failf
                "%s under concurrency: (cycles %d, checksum %#x, offloads %d) \
                 differs from serial (%d, %#x, %d)"
                name cycles checksum offloads c k o;
            ignore got)
        (slots.(0) @ slots.(1)))

let suites =
  [
    ( "service.proto",
      [
        Alcotest.test_case "taxonomy golden pin" `Quick taxonomy_golden;
        Alcotest.test_case "unknown fields tolerated" `Quick
          unknown_fields_tolerated;
        QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
      ] );
    ( "service.breaker",
      [
        Alcotest.test_case "trips, cools down, probes, recloses" `Quick
          breaker_trips_and_recloses;
        Alcotest.test_case "reopen doubles cooldown up to the cap" `Quick
          breaker_reopen_doubles_cooldown;
        Alcotest.test_case "backoff is seeded and bounded" `Quick
          backoff_seeded_and_bounded;
      ] );
    ( "service.core",
      [
        Alcotest.test_case "validation errors are bad_request" `Quick
          service_validates_requests;
        Alcotest.test_case "deadline and backoff config validated" `Quick
          service_rejects_bad_timing_config;
        Alcotest.test_case "clean run succeeds and is counted" `Quick
          service_runs_and_counts;
        Alcotest.test_case "counters register in source order" `Quick
          counters_in_source_order;
        Alcotest.test_case "deadline resolves to deadline_exceeded" `Quick
          deadline_resolves_to_taxonomy;
        Alcotest.test_case "draining sheds with overloaded" `Quick
          draining_sheds_with_overloaded;
        Alcotest.test_case "full queue sheds with overloaded" `Quick
          queue_full_sheds_with_overloaded;
        Alcotest.test_case "chaos trips the breaker and recovers" `Slow
          chaos_trips_and_recovers;
        Alcotest.test_case "no shard + no fallback = fabric_quarantined"
          `Slow fallback_forbidden_is_fabric_quarantined;
        Alcotest.test_case "concurrent shards match the serial oracle" `Slow
          concurrent_shards_match_serial;
      ] );
    ( "service.daemon",
      [
        Alcotest.test_case "answers, salvages ids, survives garbage" `Quick
          daemon_answers_and_salvages_ids;
        Alcotest.test_case "drain loses no in-flight request" `Slow
          drain_loses_no_inflight_request;
        Alcotest.test_case "seeded loadgen digest is deterministic" `Slow
          loadgen_digest_deterministic;
        Alcotest.test_case "rejected config binds nothing" `Quick
          rejected_config_binds_nothing;
        Alcotest.test_case "subscribe streams frames" `Quick subscribe_streams_frames;
        Alcotest.test_case "loadgen gates" `Quick loadgen_gates;
      ] );
  ]
