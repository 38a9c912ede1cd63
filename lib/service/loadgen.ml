type config = {
  socket : string;
  requests : int;
  concurrency : int;
  seed : int;
  kernels : string list;
  chaos : bool;
  chaos_rate : float;
  injects : string list;
  deadline_ms : float option;
  no_fallback_rate : float;
}

let default_config =
  {
    socket = "/tmp/mesad.sock";
    requests = 200;
    concurrency = 8;
    seed = 1;
    kernels = [ "nn"; "kmeans"; "bfs" ];
    chaos = false;
    chaos_rate = 0.25;
    injects =
      [
        "transient@40";
        "permanent@80";
        "link@60";
        "ports@30";
        "config@1";
        (* A dense transient storm: exhausts the controller's consecutive
           retry budget and quarantines the shard mid-run — the schedule
           that exercises breaker trips and half-open recovery. *)
        "transient@40,transient@90,transient@140,transient@190,\
         transient@240,transient@290,transient@340,transient@390,\
         transient@440,transient@490";
      ];
    deadline_ms = None;
    no_fallback_rate = 0.1;
  }

let request_at cfg i =
  (* One independent splitmix stream per index: lanes can build their
     requests without sharing generator state. *)
  let p = Prng.create ((cfg.seed * 0x1000003) + (i * 0x9E3779B9) + 17) in
  let kernel =
    List.nth cfg.kernels (Prng.int p (List.length cfg.kernels))
  in
  let inject, fault_seed =
    if cfg.chaos && Prng.float p 1.0 < cfg.chaos_rate then
      ( Some (List.nth cfg.injects (Prng.int p (List.length cfg.injects))),
        Prng.int p 1_000_000 )
    else (None, 0x5EED)
  in
  let allow_fallback =
    not (cfg.chaos && Prng.float p 1.0 < cfg.no_fallback_rate)
  in
  {
    Proto.id = i;
    kernel;
    deadline_ms = cfg.deadline_ms;
    inject;
    fault_seed;
    allow_fallback;
  }

type probe_result = {
  index : int;
  outcome : string;
  cycles : int;
  mem_checksum : int;
  site : string;
  shard : int;
  rerouted : bool;
  retries : int;
  quarantines : int;
  latency_ms : float;
}

type result = {
  sent : int;
  completed : int;
  closed_unanswered : int;
  protocol_errors : int;
  outcomes : (string * int) list;
  outcome_latency : (string * (int * float * float)) list;
      (* outcome -> (count, p50 ms, p99 ms) over the answered probes,
         computed through the telemetry Sketch so the CLI report and the
         daemon's watch frames agree on quantile semantics *)
  ok_fabric : int;
  ok_cpu : int;
  rerouted : int;
  retried : int;
  quarantines_observed : int;
  p50_ms : float;
  p99_ms : float;
  mean_ms : float;
  max_ms : float;
  wall_s : float;
  throughput_rps : float;
  digest : int;
  service_stats : Json.t option;
}

(* ---------------- FNV-1a digest (latency excluded) ---------------- *)

let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

let fnv_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let fnv_int h i =
  let x = Int64.of_int i in
  let h = ref h in
  for k = 0 to 7 do
    h := fnv_byte !h (Int64.to_int (Int64.shift_right_logical x (8 * k)))
  done;
  !h

let fnv_string h s = String.fold_left (fun h c -> fnv_byte h (Char.code c)) h s

let digest_of_probes probes =
  let h =
    List.fold_left
      (fun h p ->
        let h = fnv_int h p.index in
        let h = fnv_string h p.outcome in
        let h = fnv_int h p.cycles in
        let h = fnv_int h p.mem_checksum in
        let h = fnv_string h p.site in
        let h = fnv_int h p.shard in
        let h = fnv_int h p.retries in
        fnv_int h p.quarantines)
      fnv_basis probes
  in
  Int64.to_int h land max_int

(* ---------------- one client lane ---------------- *)

let connect path =
  (* A daemon draining mid-send must surface as EPIPE on the client's write
     (caught by the caller), not as a process-killing SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let send oc req =
  output_string oc (Proto.request_to_line req);
  output_char oc '\n';
  flush oc

let decode line = Result.bind (Json.of_string line) Proto.response_of_json

let stream ic ~on_body =
  let rec loop n =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> Ok n
    | line -> (
      match decode line with
      | Error e -> Error ("bad response: " ^ e)
      | Ok { Proto.body = Proto.End_stream; _ } -> Ok n
      | Ok { Proto.body = Proto.Err e; _ } ->
        Error (Proto.error_kind_to_string e.Proto.kind ^ ": " ^ e.Proto.message)
      | Ok rsp -> (
        match on_body rsp.Proto.body with
        | Ok () -> loop (n + 1)
        | Error _ as err -> err))
  in
  loop 0

let subscribe ~socket req ~on_body =
  match connect socket with
  | exception Unix.Unix_error (err, _, _) ->
    Error (socket ^ ": " ^ Unix.error_message err)
  | fd, ic, oc ->
    Fun.protect
      ~finally:(fun () -> close fd)
      (fun () ->
        match send oc req with
        | exception Sys_error e -> Error e
        | () -> stream ic ~on_body)

let unanswered i =
  {
    index = i;
    outcome = "unanswered";
    cycles = 0;
    mem_checksum = 0;
    site = "";
    shard = -1;
    rerouted = false;
    retries = 0;
    quarantines = 0;
    latency_ms = 0.0;
  }

(* Serve the lane's share of the stream: indices lane, lane+c, lane+2c...
   Returns the probes in index order plus (sent, closed, protocol_errors). *)
let lane cfg lane_id =
  let indices =
    List.filter
      (fun i -> i mod cfg.concurrency = lane_id)
      (List.init cfg.requests Fun.id)
  in
  let probes = ref [] in
  let sent = ref 0 in
  let closed = ref 0 in
  let proto_errors = ref 0 in
  (match connect cfg.socket with
  | exception (Unix.Unix_error _ | Sys_error _) ->
    (* Daemon gone before this lane started: nothing was ever sent. *)
    ()
  | fd, ic, oc ->
    let probe_of_response i (rsp : Proto.response) lat =
      if rsp.Proto.rsp_id <> i then begin
        incr proto_errors;
        None
      end
      else
        match rsp.Proto.body with
        | Proto.Ok_run b ->
          Some
            {
              index = i;
              outcome = "ok";
              cycles = b.Proto.cycles;
              mem_checksum = b.Proto.mem_checksum;
              site = Proto.site_to_string b.Proto.site;
              shard = b.Proto.shard;
              rerouted = b.Proto.rerouted;
              retries = b.Proto.retries;
              quarantines = b.Proto.quarantines;
              latency_ms = lat;
            }
        | Proto.Err e ->
          Some
            {
              (unanswered i) with
              outcome = Proto.error_kind_to_string e.Proto.kind;
              latency_ms = lat;
            }
        | Proto.Stats_dump _ | Proto.Pong | Proto.Frame _ | Proto.Span _
        | Proto.End_stream ->
          incr proto_errors;
          None
    in
    let rec drive = function
      | [] -> ()
      | i :: rest -> (
        let req = request_at cfg i in
        match send oc (Proto.Run req) with
        | exception (Sys_error _ | Unix.Unix_error _) ->
          (* Could not even send: daemon drained away; stop the lane. *)
          ()
        | () -> (
          incr sent;
          let t0 = Unix.gettimeofday () in
          match input_line ic with
          | exception (End_of_file | Sys_error _) ->
            (* Sent but the connection closed first: the daemon shut down
               before admitting it (admitted requests always get their
               response flushed before close). *)
            incr closed;
            probes := unanswered i :: !probes
          | line -> (
            let lat = (Unix.gettimeofday () -. t0) *. 1000.0 in
            match decode line with
            | Error _ ->
              incr proto_errors;
              drive rest
            | Ok rsp -> (
              match probe_of_response i rsp lat with
              | None -> drive rest
              | Some p ->
                probes := p :: !probes;
                drive rest))))
    in
    drive indices;
    close fd);
  (List.rev !probes, !sent, !closed, !proto_errors)

let fetch_service_stats path =
  match connect path with
  | exception (Unix.Unix_error _ | Sys_error _) -> None
  | fd, ic, oc -> (
    let line =
      match
        send oc (Proto.Get_stats (-1));
        input_line ic
      with
      | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> None
      | line -> Some line
    in
    close fd;
    match Option.map decode line with
    | Some (Ok { Proto.body = Proto.Stats_dump j; _ }) -> Some j
    | _ -> None)

let run cfg =
  if cfg.requests < 0 then invalid_arg "Loadgen.run: requests must be >= 0";
  if cfg.concurrency < 1 then
    invalid_arg "Loadgen.run: concurrency must be >= 1";
  if cfg.kernels = [] then invalid_arg "Loadgen.run: empty kernel mix";
  let t0 = Unix.gettimeofday () in
  let slots = Array.make cfg.concurrency ([], 0, 0, 0) in
  let threads =
    List.init cfg.concurrency (fun l ->
        Thread.create (fun () -> slots.(l) <- lane cfg l) ())
  in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let probes =
    Array.to_list slots
    |> List.concat_map (fun (ps, _, _, _) -> ps)
    |> List.sort (fun a b -> compare a.index b.index)
  in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 slots in
  let sent = sum (fun (_, s, _, _) -> s) in
  let closed_unanswered = sum (fun (_, _, c, _) -> c) in
  let protocol_errors = sum (fun (_, _, _, e) -> e) in
  let count pred = List.length (List.filter pred probes) in
  let answered = List.filter (fun p -> p.outcome <> "unanswered") probes in
  let outcomes =
    ("ok", count (fun p -> p.outcome = "ok"))
    :: List.map
         (fun k ->
           let tag = Proto.error_kind_to_string k in
           (tag, count (fun p -> p.outcome = tag)))
         Proto.all_error_kinds
  in
  let lat = List.map (fun p -> p.latency_ms) answered in
  let pct p = if lat = [] then 0.0 else Stats.percentile p lat in
  (* Per-outcome latency quantiles via a single-window sketch — the same
     aggregation the daemon's watch frames use. Latency never feeds the
     digest, so these stay out of the determinism contract. *)
  let outcome_latency =
    List.filter_map
      (fun (tag, _) ->
        let sk = Sketch.create ~windows:1 () in
        List.iter
          (fun p -> if p.outcome = tag then Sketch.observe sk p.latency_ms)
          answered;
        if Sketch.window_count sk = 0 then None
        else
          Some
            ( tag,
              ( Sketch.window_count sk,
                Sketch.quantile sk 0.5,
                Sketch.quantile sk 0.99 ) ))
      outcomes
  in
  {
    sent;
    completed = List.length answered;
    closed_unanswered;
    protocol_errors;
    outcomes;
    outcome_latency;
    ok_fabric = count (fun p -> p.outcome = "ok" && p.site = "fabric");
    ok_cpu = count (fun p -> p.outcome = "ok" && p.site = "cpu");
    rerouted = count (fun p -> p.rerouted);
    retried = count (fun p -> p.outcome = "ok" && p.retries > 0);
    quarantines_observed =
      List.fold_left (fun a p -> a + p.quarantines) 0 probes;
    p50_ms = pct 0.5;
    p99_ms = pct 0.99;
    mean_ms = Stats.mean lat;
    max_ms = List.fold_left (fun a l -> Float.max a l) 0.0 lat;
    wall_s;
    throughput_rps =
      (if wall_s > 0.0 then float_of_int (List.length answered) /. wall_s
       else 0.0);
    digest = digest_of_probes probes;
    service_stats = fetch_service_stats cfg.socket;
  }

let result_to_json r =
  Json.Assoc
    [
      (* v2: adds this schema tag and per-outcome latency quantiles; every
         v1 field is unchanged, as is the digest. *)
      ("schema", Json.String "mesa-loadgen-v2");
      ("sent", Json.Int r.sent);
      ("completed", Json.Int r.completed);
      ("closed_unanswered", Json.Int r.closed_unanswered);
      ("protocol_errors", Json.Int r.protocol_errors);
      ( "outcomes",
        Json.Assoc (List.map (fun (k, v) -> (k, Json.Int v)) r.outcomes) );
      ( "outcome_latency_ms",
        Json.Assoc
          (List.map
             (fun (k, (n, p50, p99)) ->
               ( k,
                 Json.Assoc
                   [
                     ("count", Json.Int n);
                     ("p50", Json.Float p50);
                     ("p99", Json.Float p99);
                   ] ))
             r.outcome_latency) );
      ("ok_fabric", Json.Int r.ok_fabric);
      ("ok_cpu", Json.Int r.ok_cpu);
      ("rerouted", Json.Int r.rerouted);
      ("retried", Json.Int r.retried);
      ("quarantines_observed", Json.Int r.quarantines_observed);
      ("p50_ms", Json.Float r.p50_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("mean_ms", Json.Float r.mean_ms);
      ("max_ms", Json.Float r.max_ms);
      ("wall_s", Json.Float r.wall_s);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("digest", Json.String (Printf.sprintf "%016x" r.digest));
      ( "service_stats",
        match r.service_stats with None -> Json.Null | Some j -> j );
    ]

let find_service_counter r path =
  match r.service_stats with
  | None -> None
  | Some j ->
    Option.bind (Json.path (String.split_on_char '.' path) j) Json.to_int

let gate_failures ~require_zero_internal ~require_recoveries r =
  let counter p = Option.value ~default:0 (find_service_counter r p) in
  let internal = Option.value ~default:0 (List.assoc_opt "internal" r.outcomes) in
  let trips = counter "service.breaker.trips" in
  let recloses = counter "service.breaker.recloses" in
  (if
     require_zero_internal
     && (internal > 0 || r.protocol_errors > 0 || r.closed_unanswered > 0)
   then
     [
       Printf.sprintf
         "gate: internal=%d protocol_errors=%d closed_unanswered=%d (all must be 0)"
         internal r.protocol_errors r.closed_unanswered;
     ]
   else [])
  @
  if require_recoveries && (trips = 0 || recloses = 0) then
    [
      Printf.sprintf "gate: breaker trips=%d recloses=%d (both must be > 0)"
        trips recloses;
    ]
  else []
