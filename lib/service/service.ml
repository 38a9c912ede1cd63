type config = {
  shards : int;
  shard_pes : int;
  jobs : int;
  queue_depth : int;
  max_retries : int;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  breaker : Breaker.config;
  seed : int;
  default_deadline_ms : float option;
  watchdog_window : int;
  warm : bool;
  profile_window : int option;
}

let default_config =
  {
    shards = 4;
    shard_pes = 64;
    jobs = Pool.default_jobs ();
    queue_depth = 64;
    max_retries = 2;
    backoff_base_ms = 1.0;
    backoff_cap_ms = 20.0;
    breaker = Breaker.default_config;
    seed = 0x5EED;
    default_deadline_ms = None;
    watchdog_window = 512;
    warm = true;
    profile_window = None;
  }

type shard = { sh_id : int; sh_grid : Grid.t; sh_breaker : Breaker.t }

(* Counter handles, created once at registration. *)
type counters = {
  admitted : Stats.counter;
  shed : Stats.counter;
  ok : Stats.counter;
  bad_request : Stats.counter;
  deadline_exceeded : Stats.counter;
  overloaded : Stats.counter;
  fabric_quarantined : Stats.counter;
  internal : Stats.counter;
  exec_fabric : Stats.counter;
  exec_cpu_fallback : Stats.counter;
  exec_rerouted : Stats.counter;
  exec_retries : Stats.counter;
  exec_retry_successes : Stats.counter;
  exec_abandoned : Stats.counter;
  backoff_ms : Stats.histogram;
  br_trips : Stats.counter;
  br_reopens : Stats.counter;
  br_recloses : Stats.counter;
  br_probes : Stats.counter;
  br_faults : Stats.counter;
  tel_profile_windows : Stats.counter;
  tel_oracle_refreshes : Stats.counter;
  tel_refine_attempts : Stats.counter;
  tel_refine_accepts : Stats.counter;
  tel_refine_rejects : Stats.counter;
}

(* One unit of background-refinement work: the measured per-node snapshot a
   profiling window captured, plus the controller-path cycles of that same
   run — the never-regress bar any accepted placement must clear. *)
type refine_job = {
  rj_kernel : string;
  rj_measured : Stats.snapshot;
  rj_cycles : int;
}

type t = {
  cfg : config;
  pool : Pool.t;
  shards : shard array;
  lock : Mutex.t;
  settled : Condition.t;   (* an in-flight request finished *)
  mutable inflight : int;
  mutable peak : int;
  mutable is_draining : bool;
  mutable shut : bool;
  mutable rr : int;        (* round-robin routing cursor *)
  mutable ticket : int;    (* admission ordinal; seeds per-request jitter *)
  reg : Stats.registry;
  c : counters;
  telemetry : Telemetry.t;
  (* Accepted background refinements, by kernel name: the tune hook
     applies these to every freshly translated configuration. Guarded by
     [lock]. *)
  overrides : (string, Placement.t) Hashtbl.t;
  mutable run_tick : int;  (* inject-free runs seen; drives profiled Nths *)
  refine_jobs : refine_job Queue.t;
  refine_pending : (string, unit) Hashtbl.t;  (* kernels queued or running *)
  refine_cv : Condition.t;
  mutable refine_stop : bool;
  mutable refiner : Thread.t option;
  mutable on_window : Stats.snapshot -> unit;
}

let config t = t.cfg


(* All counter mutation happens under [t.lock]: increments come from both
   sys-threads (dispatchers) and pool domains (workers), and the registry's
   plain mutable fields are not atomic across domains. *)

(* Each counter is bound with [let], in source order: OCaml evaluates a
   record literal's fields right to left, which would register (and so
   snapshot) them in reverse. *)
let make_counters reg =
  let g = Stats.group reg "service" in
  let outcomes = Stats.subgroup g "outcomes" in
  let execg = Stats.subgroup g "exec" in
  let brg = Stats.subgroup g "breaker" in
  let telg = Stats.group reg "telemetry" in
  let admitted = Stats.counter g "admitted" in
  (* rejected before queueing *)
  let shed = Stats.counter g "shed" in
  let ok = Stats.counter outcomes "ok" in
  let bad_request = Stats.counter outcomes "bad_request" in
  let deadline_exceeded = Stats.counter outcomes "deadline_exceeded" in
  let overloaded = Stats.counter outcomes "overloaded" in
  let fabric_quarantined = Stats.counter outcomes "fabric_quarantined" in
  let internal = Stats.counter outcomes "internal" in
  let exec_fabric = Stats.counter execg "fabric" in
  let exec_cpu_fallback = Stats.counter execg "cpu_fallback" in
  let exec_rerouted = Stats.counter execg "rerouted" in
  let exec_retries = Stats.counter execg "retries" in
  let exec_retry_successes = Stats.counter execg "retry_successes" in
  (* worker tasks whose request's deadline fired before they started *)
  let exec_abandoned = Stats.counter execg "abandoned" in
  let backoff_ms = Stats.histogram execg "backoff_ms" in
  let br_trips = Stats.counter brg "trips" in
  let br_reopens = Stats.counter brg "reopens" in
  (* half-open probes that reclosed a shard *)
  let br_recloses = Stats.counter brg "recloses" in
  let br_probes = Stats.counter brg "half_open_probes" in
  let br_faults = Stats.counter brg "faults_recorded" in
  (* profiled runs that captured a measured window *)
  let tel_profile_windows = Stats.counter telg "profile_windows" in
  (* measured snapshots handed to the background refiner *)
  let tel_oracle_refreshes = Stats.counter telg "oracle_refreshes" in
  let tel_refine_attempts = Stats.counter telg "refine_attempts" in
  (* engine- and controller-confirmed placements installed *)
  let tel_refine_accepts = Stats.counter telg "refine_accepts" in
  let tel_refine_rejects = Stats.counter telg "refine_rejects" in
  ( g,
    telg,
    {
      admitted;
      shed;
      ok;
      bad_request;
      deadline_exceeded;
      overloaded;
      fabric_quarantined;
      internal;
      exec_fabric;
      exec_cpu_fallback;
      exec_rerouted;
      exec_retries;
      exec_retry_successes;
      exec_abandoned;
      backoff_ms;
      br_trips;
      br_reopens;
      br_recloses;
      br_probes;
      br_faults;
      tel_profile_windows;
      tel_oracle_refreshes;
      tel_refine_attempts;
      tel_refine_accepts;
      tel_refine_rejects;
    } )

(* Probes read live service state, so they can only be registered once the
   record exists; the counters above have no such dependency. *)
let register_probes t g telg =
  Stats.int_probe telg "spans_emitted" (fun () ->
      Telemetry.spans_emitted t.telemetry);
  Stats.int_probe telg "overrides_installed" (fun () ->
      Hashtbl.length t.overrides);
  let queue = Stats.subgroup g "queue" in
  Stats.int_probe queue "depth" (fun () -> t.inflight);
  Stats.int_probe queue "peak_depth" (fun () -> t.peak);
  Stats.int_probe queue "capacity" (fun () -> t.cfg.queue_depth);
  let shardsg = Stats.subgroup g "shards" in
  Array.iter
    (fun s ->
      (* 0 closed, 1 open, 2 half-open *)
      Stats.int_probe shardsg
        (Printf.sprintf "shard%d_state" s.sh_id)
        (fun () ->
          match Breaker.state s.sh_breaker with
          | Breaker.Closed -> 0
          | Breaker.Open -> 1
          | Breaker.Half_open -> 2))
    t.shards

(* ------------------------------------------------------------------ *)
(* Profiling-window feedback: a profiled run's measured per-node snapshot
   feeds the cost model's latency oracles, a background refine pass
   searches for a faster placement, and an accepted one becomes the
   service's override, forced into every subsequent translation via the
   controller's tune hook. *)

(* A refined placement may only substitute for a translated configuration
   it is structurally compatible with: the controller maps its own
   (post-CSE) dfg while the refiner maps the raw hot-loop LDFG, so node
   counts can differ. Grid equality plus assignment arity is the guard —
   and installs are additionally gated on a full controller-path
   confirmation run below. *)
let compatible (cfg : Accel_config.t) (p : Placement.t) =
  cfg.Accel_config.placement.Placement.grid = p.Placement.grid
  && Array.length cfg.Accel_config.placement.Placement.assign
     = Array.length p.Placement.assign

let tune_hook t kernel cfg =
  match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.overrides kernel) with
  | Some p when compatible cfg p -> { cfg with Accel_config.placement = p }
  | _ -> cfg

(* Controller-path cycles for [k] with [placement] forced into every
   compatible translation — acceptance runs the same pipeline a live
   request does, so a placement that wins at the engine level but loses
   end to end (or corrupts outputs) is rejected. *)
let controller_confirm t (k : Kernel.t) ~grid placement =
  let options = Controller.default_options ~grid () in
  let options =
    {
      options with
      Controller.watchdog_window = t.cfg.watchdog_window;
      tune =
        (fun cfg ->
          if compatible cfg placement then
            { cfg with Accel_config.placement }
          else cfg);
    }
  in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let report = Controller.run ~options k.Kernel.program machine in
  let cycles = report.Controller.total_cycles in
  match k.Kernel.check mem with Ok () -> Some cycles | Error _ -> None

let refine_one t (j : refine_job) =
  let reject detail =
    Mutex.protect t.lock (fun () -> Stats.incr t.c.tel_refine_rejects);
    Telemetry.emit t.telemetry ~kernel:j.rj_kernel ~detail Telemetry.Refine
  in
  Mutex.protect t.lock (fun () -> Stats.incr t.c.tel_refine_attempts);
  match Workloads.find j.rj_kernel with
  | exception Not_found -> reject "unknown kernel"
  | k -> (
    let grid = t.shards.(0).sh_grid in
    let baseline =
      Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.overrides j.rj_kernel)
    in
    match
      Refine.run ~seed:t.cfg.seed ~grid ?baseline ~measured:j.rj_measured k
    with
    | Error e -> reject ("refine failed: " ^ e)
    | Ok r ->
      if r.Refine.refined_cycles >= r.Refine.baseline_cycles then
        reject "no engine-confirmed gain"
      else (
        match controller_confirm t k ~grid r.Refine.placement with
        | None -> reject "controller confirmation failed"
        | Some cycles when cycles > j.rj_cycles ->
          reject
            (Printf.sprintf "controller regression (%d > %d cycles)" cycles
               j.rj_cycles)
        | Some cycles ->
          Mutex.protect t.lock (fun () ->
              Hashtbl.replace t.overrides j.rj_kernel r.Refine.placement;
              Stats.incr t.c.tel_refine_accepts);
          Telemetry.note_refine_accept t.telemetry ~kernel:j.rj_kernel;
          Telemetry.emit t.telemetry ~kernel:j.rj_kernel
            ~detail:
              (Printf.sprintf "accept: %d -> %d controller cycles" j.rj_cycles
                 cycles)
            Telemetry.Refine))

let refiner_loop t =
  let rec next () =
    let job =
      Mutex.protect t.lock (fun () ->
          while Queue.is_empty t.refine_jobs && not t.refine_stop do
            Condition.wait t.refine_cv t.lock
          done;
          if Queue.is_empty t.refine_jobs then None
          else Some (Queue.pop t.refine_jobs))
    in
    match job with
    | None -> ()
    | Some j ->
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect t.lock (fun () -> Hashtbl.remove t.refine_pending j.rj_kernel))
        (fun () ->
          try refine_one t j
          with e ->
            Mutex.protect t.lock (fun () -> Stats.incr t.c.tel_refine_rejects);
            Telemetry.emit t.telemetry ~kernel:j.rj_kernel
              ~detail:("refiner exception: " ^ Printexc.to_string e)
              Telemetry.Refine);
      next ()
  in
  next ()

(* At most one queued job per kernel, and a short queue overall: windows
   arrive far faster than refines complete, and a newer window for the
   same kernel supersedes an unserved older one anyway. *)
let enqueue_refine t ~kernel ~measured ~cycles =
  Mutex.protect t.lock (fun () ->
      if
        (not t.refine_stop) && t.refiner <> None
        && (not (Hashtbl.mem t.refine_pending kernel))
        && Queue.length t.refine_jobs < 4
      then begin
        Hashtbl.add t.refine_pending kernel ();
        Queue.push
          { rj_kernel = kernel; rj_measured = measured; rj_cycles = cycles }
          t.refine_jobs;
        Stats.incr t.c.tel_oracle_refreshes;
        Condition.signal t.refine_cv;
        true
      end
      else false)

let create ?(config = default_config) () =
  if config.shards < 1 then invalid_arg "Service.create: shards must be >= 1";
  if config.shard_pes < 4 then
    invalid_arg "Service.create: shard_pes must be >= 4";
  if config.queue_depth < 1 then
    invalid_arg "Service.create: queue_depth must be >= 1";
  if config.max_retries < 0 then
    invalid_arg "Service.create: max_retries must be >= 0";
  if not (config.backoff_base_ms > 0.0) then
    invalid_arg "Service.create: backoff_base_ms must be > 0";
  if not (config.backoff_cap_ms >= config.backoff_base_ms) then
    invalid_arg "Service.create: backoff_cap_ms must be >= backoff_base_ms";
  (match config.default_deadline_ms with
  | Some d when not (d > 0.0) ->
    invalid_arg "Service.create: default_deadline_ms must be > 0"
  | _ -> ());
  (match Breaker.validate_config config.breaker with
  | Ok () -> ()
  | Error e -> invalid_arg ("Service.create: breaker " ^ e));
  let grid = Grid.of_pe_count config.shard_pes in
  let shards =
    Array.init config.shards (fun i ->
        { sh_id = i; sh_grid = grid; sh_breaker = Breaker.create config.breaker })
  in
  (match config.profile_window with
  | Some n when n < 1 ->
    invalid_arg "Service.create: profile_window must be >= 1"
  | _ -> ());
  let reg = Stats.registry () in
  let g, telg, c = make_counters reg in
  let t =
    {
      cfg = config;
      pool = Pool.create ~jobs:(max 1 config.jobs) ();
      shards;
      lock = Mutex.create ();
      settled = Condition.create ();
      inflight = 0;
      peak = 0;
      is_draining = false;
      shut = false;
      rr = 0;
      ticket = 0;
      reg;
      c;
      telemetry = Telemetry.create ();
      overrides = Hashtbl.create 8;
      run_tick = 0;
      refine_jobs = Queue.create ();
      refine_pending = Hashtbl.create 8;
      refine_cv = Condition.create ();
      refine_stop = false;
      refiner = None;
      on_window = (fun _ -> ());
    }
  in
  register_probes t g telg;
  if config.profile_window <> None then
    t.refiner <- Some (Thread.create refiner_loop t);
  t

(* ------------------------------------------------------------------ *)
(* Execution of one attempt.                                           *)

let sum_regions f (report : Controller.report) =
  List.fold_left (fun acc r -> acc + f r) 0 report.Controller.regions

(* Full controller pipeline on one shard. Returns the response body (with
   latency left at 0), the quarantine count that drives the breaker, the
   output validation verdict, and — when [profiled] — the last clean
   window's measured per-node snapshot for the refiner's oracles.
   Profiling is pure observation, so a profiled run's cycles, memory and
   registers are bit-identical to an unprofiled one. *)
let fabric_exec t (k : Kernel.t) shard inject ~rerouted ~retries ~profiled =
  let options =
    Controller.default_options ~grid:shard.sh_grid ?inject ~profile:profiled ()
  in
  let options =
    {
      options with
      Controller.watchdog_window = t.cfg.watchdog_window;
      tune = tune_hook t k.Kernel.name;
    }
  in
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let report = Controller.run ~options k.Kernel.program machine in
  let quarantines = sum_regions (fun r -> r.Controller.quarantines) report in
  let body =
    {
      Proto.kernel = k.Kernel.name;
      cycles = report.Controller.total_cycles;
      offloads = report.Controller.offloads;
      mem_checksum = Main_memory.checksum mem;
      shard = shard.sh_id;
      site = Proto.Fabric;
      rerouted;
      retries;
      quarantines;
      faults_detected =
        sum_regions (fun r -> r.Controller.faults_detected) report;
      latency_ms = 0.0;
    }
  in
  let verdict = k.Kernel.check mem in
  let measured =
    if profiled then
      List.find_map (fun r -> r.Controller.measured) report.Controller.regions
    else None
  in
  (body, quarantines, verdict, measured)

let cpu_exec (k : Kernel.t) ~rerouted ~retries =
  let mem = Main_memory.create () in
  let machine = Kernel.prepare k mem in
  let r = Cpu_run.run k.Kernel.program machine in
  let body =
    {
      Proto.kernel = k.Kernel.name;
      cycles = r.Cpu_run.summary.Ooo_model.cycles;
      offloads = 0;
      mem_checksum = Main_memory.checksum mem;
      shard = -1;
      site = Proto.Cpu;
      rerouted;
      retries;
      quarantines = 0;
      faults_detected = 0;
      latency_ms = 0.0;
    }
  in
  (body, k.Kernel.check mem)

let err kind message = Proto.Err { Proto.kind; message }

(* Route under the lock: advance every open breaker's cooldown, then scan
   round-robin for a shard whose breaker admits traffic. *)
let route t =
  Mutex.protect t.lock (fun () ->
      Array.iter (fun s -> Breaker.tick s.sh_breaker) t.shards;
      let n = Array.length t.shards in
      let start = t.rr in
      t.rr <- (t.rr + 1) mod n;
      let rec scan i skipped =
        if i = n then None
        else
          let s = t.shards.((start + i) mod n) in
          match Breaker.acquire s.sh_breaker with
          | Some grant ->
            if grant = `Probe then Stats.incr t.c.br_probes;
            Some (s, grant, skipped > 0)
          | None -> scan (i + 1) (skipped + 1)
      in
      scan 0 0)

let record_breaker t shard ~probe ~ok =
  let transition =
    Mutex.protect t.lock (fun () ->
        if not ok then Stats.incr t.c.br_faults;
        let tr = Breaker.record shard.sh_breaker ~probe ~ok in
        (match tr with
        | Breaker.No_change -> ()
        | Breaker.Tripped -> Stats.incr t.c.br_trips
        | Breaker.Reclosed -> Stats.incr t.c.br_recloses
        | Breaker.Reopened -> Stats.incr t.c.br_reopens);
        tr)
  in
  match transition with
  | Breaker.No_change -> ()
  | tr ->
    let detail =
      match tr with
      | Breaker.Tripped -> "trip"
      | Breaker.Reclosed -> "reclose"
      | Breaker.Reopened -> "reopen"
      | Breaker.No_change -> ""
    in
    Telemetry.emit t.telemetry ~shard:shard.sh_id ~detail Telemetry.Breaker

(* The worker-side attempt ladder. [inject] is armed on the first attempt
   only: the schedule models an environmental strike during this request,
   so a retry runs clean on (preferably) a different shard. A [profiled]
   attempt that completes a clean fabric window hands its measured
   snapshot to the background refiner and fires the [on_window] hook. *)
let attempts t (k : Kernel.t) inject ~req ~profiled ~allow_fallback ~cancelled
    ~backoff =
  let kernel = k.Kernel.name in
  let rec go attempt inject any_reroute =
    if Atomic.get cancelled then begin
      Mutex.protect t.lock (fun () -> Stats.incr t.c.exec_abandoned);
      err Proto.Deadline_exceeded "deadline elapsed before execution started"
    end
    else
      match route t with
      | None ->
        if allow_fallback then begin
          match cpu_exec k ~rerouted:any_reroute ~retries:attempt with
          | body, Ok () ->
            Mutex.protect t.lock (fun () -> Stats.incr t.c.exec_cpu_fallback);
            Telemetry.emit t.telemetry ~req ~kernel ~detail:"cpu-fallback"
              Telemetry.Execute;
            Proto.Ok_run body
          | _, Error msg ->
            err Proto.Internal ("cpu fallback output validation failed: " ^ msg)
          | exception e -> err Proto.Internal (Printexc.to_string e)
        end
        else
          err Proto.Fabric_quarantined
            (Printf.sprintf
               "all %d fabric shard(s) quarantined and fallback disallowed"
               (Array.length t.shards))
      | Some (shard, grant, skipped) ->
        let probe = grant = `Probe in
        let rerouted = any_reroute || skipped in
        Telemetry.emit t.telemetry ~req ~kernel ~shard:shard.sh_id
          ~detail:(if probe then "probe" else "")
          Telemetry.Translate;
        (match
           fabric_exec t k shard inject ~rerouted ~retries:attempt ~profiled
         with
        | body, quarantines, checked, measured -> (
          match checked with
          | Error msg ->
            record_breaker t shard ~probe ~ok:false;
            err Proto.Internal ("output validation failed: " ^ msg)
          | Ok () ->
            if quarantines = 0 then begin
              record_breaker t shard ~probe ~ok:true;
              Mutex.protect t.lock (fun () ->
                  Stats.incr t.c.exec_fabric;
                  if rerouted then Stats.incr t.c.exec_rerouted;
                  if attempt > 0 then Stats.incr t.c.exec_retry_successes);
              Telemetry.emit t.telemetry ~req ~kernel ~shard:shard.sh_id
                ~detail:(Printf.sprintf "%d cycles" body.Proto.cycles)
                Telemetry.Execute;
              (match measured with
              | Some snap ->
                Mutex.protect t.lock (fun () -> Stats.incr t.c.tel_profile_windows);
                Telemetry.note_profile_window t.telemetry ~kernel;
                Telemetry.emit t.telemetry ~req ~kernel ~shard:shard.sh_id
                  Telemetry.Profile_window;
                if
                  enqueue_refine t ~kernel ~measured:snap
                    ~cycles:body.Proto.cycles
                then
                  Telemetry.emit t.telemetry ~req ~kernel
                    Telemetry.Oracle_refresh;
                let cb = Mutex.protect t.lock (fun () -> t.on_window) in
                cb (Mutex.protect t.lock (fun () -> Stats.snapshot t.reg))
              | None -> ());
              Proto.Ok_run body
            end
            else begin
              (* Architecturally correct (the in-run recovery ladder fell
                 back to the CPU), but the shard faulted: trip its health
                 tracker and, budget permitting, retry for a clean fabric
                 result. *)
              record_breaker t shard ~probe ~ok:false;
              if attempt < t.cfg.max_retries && not (Atomic.get cancelled)
              then begin
                let delay_ms = Backoff.next_ms backoff in
                Mutex.protect t.lock (fun () ->
                    Stats.incr t.c.exec_retries;
                    Stats.observe t.c.backoff_ms delay_ms);
                Telemetry.emit t.telemetry ~req ~kernel ~shard:shard.sh_id
                  ~detail:(Printf.sprintf "backoff %.2fms" delay_ms)
                  Telemetry.Retry;
                Unix.sleepf (delay_ms /. 1000.0);
                go (attempt + 1) None true
              end
              else begin
                Mutex.protect t.lock (fun () ->
                    Stats.incr t.c.exec_fabric;
                    if rerouted then Stats.incr t.c.exec_rerouted);
                Telemetry.emit t.telemetry ~req ~kernel ~shard:shard.sh_id
                  ~detail:"degraded" Telemetry.Execute;
                Proto.Ok_run body
              end
            end)
        | exception e ->
          record_breaker t shard ~probe ~ok:false;
          err Proto.Internal (Printexc.to_string e))
  in
  go 0 inject false

(* ------------------------------------------------------------------ *)
(* Admission, deadline and taxonomy accounting.                        *)

let validate (req : Proto.run_request) =
  match Workloads.find req.kernel with
  | exception Not_found ->
    Error (Printf.sprintf "unknown kernel %S" req.kernel)
  | k -> (
    match req.deadline_ms with
    | Some d when not (d > 0.0) -> Error "deadline_ms must be positive"
    | _ -> (
      match req.inject with
      | None -> Ok (k, None)
      | Some s -> (
        match Fault.spec_of_string ~seed:req.fault_seed s with
        | Ok spec -> Ok (k, Some spec)
        | Error e -> Error ("bad inject spec: " ^ e))))

let tally t body =
  Mutex.protect t.lock (fun () ->
      match body with
      | Proto.Ok_run _ -> Stats.incr t.c.ok
      | Proto.Err e -> (
        match e.Proto.kind with
        | Proto.Bad_request -> Stats.incr t.c.bad_request
        | Proto.Deadline_exceeded -> Stats.incr t.c.deadline_exceeded
        | Proto.Overloaded -> Stats.incr t.c.overloaded
        | Proto.Fabric_quarantined -> Stats.incr t.c.fabric_quarantined
        | Proto.Internal -> Stats.incr t.c.internal)
      | Proto.Stats_dump _ | Proto.Pong | Proto.Frame _ | Proto.Span _
      | Proto.End_stream ->
        ())

let outcome_of = function
  | Proto.Ok_run _ -> "ok"
  | Proto.Err e -> Proto.error_kind_to_string e.Proto.kind
  | Proto.Stats_dump _ | Proto.Pong | Proto.Frame _ | Proto.Span _
  | Proto.End_stream ->
    ""

let bad_request t msg =
  let body = err Proto.Bad_request msg in
  tally t body;
  Telemetry.emit t.telemetry ~outcome:"bad_request" ~detail:msg
    Telemetry.Resolve;
  body

let execute t (req : Proto.run_request) =
  let t0 = Unix.gettimeofday () in
  match validate req with
  | Error msg -> bad_request t msg
  | Ok (k, inject) ->
    let admitted =
      Mutex.protect t.lock (fun () ->
          if t.is_draining || t.shut then begin
            Stats.incr t.c.shed;
            Error (err Proto.Overloaded "service is draining")
          end
          else if t.inflight >= t.cfg.queue_depth then begin
            Stats.incr t.c.shed;
            Error
              (err Proto.Overloaded
                 (Printf.sprintf "queue full (depth %d)" t.cfg.queue_depth))
          end
          else begin
            t.inflight <- t.inflight + 1;
            if t.inflight > t.peak then t.peak <- t.inflight;
            Stats.incr t.c.admitted;
            let ticket = t.ticket in
            t.ticket <- ticket + 1;
            Ok ticket
          end)
    in
    let body =
      match admitted with
      | Error body -> body
      | Ok ticket ->
        Telemetry.emit t.telemetry ~req:req.Proto.id ~kernel:req.Proto.kernel
          ~detail:(Printf.sprintf "ticket %d" ticket)
          Telemetry.Admit;
        (* Every [profile_window]-th clean-environment run carries the
           attribution collector. Injected runs are skipped: a faulted
           window's measurements would poison the oracles. *)
        let profiled =
          match t.cfg.profile_window with
          | Some n when inject = None ->
            Mutex.protect t.lock (fun () ->
                let tick = t.run_tick in
                t.run_tick <- tick + 1;
                tick mod n = 0)
          | _ -> false
        in
        let cancelled = Atomic.make false in
        let backoff =
          (* Independent jitter stream per admitted request, reproducible
             from (service seed, admission ordinal). *)
          Backoff.create ~base_ms:t.cfg.backoff_base_ms
            ~cap_ms:t.cfg.backoff_cap_ms
            ~seed:(t.cfg.seed + (ticket * 0x9E3779B9))
        in
        let fut =
          Pool.submit t.pool (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  Mutex.protect t.lock (fun () ->
                      t.inflight <- t.inflight - 1;
                      Condition.broadcast t.settled))
                (fun () ->
                  Telemetry.emit t.telemetry ~req:req.Proto.id
                    ~kernel:k.Kernel.name Telemetry.Queue;
                  attempts t k inject ~req:req.Proto.id ~profiled
                    ~allow_fallback:req.Proto.allow_fallback ~cancelled
                    ~backoff))
        in
        let deadline_ms =
          match req.Proto.deadline_ms with
          | Some d -> Some d
          | None -> t.cfg.default_deadline_ms
        in
        (match deadline_ms with
        | None -> Pool.await fut
        | Some ms -> (
          match Pool.await_timeout fut (ms /. 1000.0) with
          | Some body -> body
          | None ->
            Atomic.set cancelled true;
            err Proto.Deadline_exceeded
              (Printf.sprintf "deadline of %gms exceeded" ms)))
    in
    tally t body;
    let latency_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let outcome = outcome_of body in
    Telemetry.observe_latency t.telemetry ~outcome latency_ms;
    (match body with
    | Proto.Ok_run b ->
      Telemetry.observe_cycles t.telemetry ~kernel:b.Proto.kernel
        b.Proto.cycles
    | _ -> ());
    Telemetry.emit t.telemetry ~req:req.Proto.id ~kernel:req.Proto.kernel
      ~outcome Telemetry.Resolve;
    (match body with
    | Proto.Ok_run b -> Proto.Ok_run { b with Proto.latency_ms }
    | other -> other)

(* ------------------------------------------------------------------ *)

let stats t = Mutex.protect t.lock (fun () -> Stats.snapshot t.reg)

let begin_drain t = Mutex.protect t.lock (fun () -> t.is_draining <- true)

let drain t =
  Mutex.protect t.lock (fun () ->
      t.is_draining <- true;
      while t.inflight > 0 do
        Condition.wait t.settled t.lock
      done;
      Stats.snapshot t.reg)

let telemetry t = t.telemetry

let set_on_window t f = Mutex.protect t.lock (fun () -> t.on_window <- f)

let refine_backlog t =
  Mutex.protect t.lock (fun () -> Hashtbl.length t.refine_pending)

(* Stop accepting jobs and join the refiner, letting an in-flight refine
   finish: its acceptance still lands in the final stats snapshot. *)
let stop_refiner t =
  let th =
    Mutex.protect t.lock (fun () ->
        t.refine_stop <- true;
        Condition.broadcast t.refine_cv;
        let th = t.refiner in
        t.refiner <- None;
        th)
  in
  Option.iter Thread.join th

let shutdown t =
  ignore (drain t);
  stop_refiner t;
  let was_shut = Mutex.protect t.lock (fun () ->
      let w = t.shut in
      t.shut <- true;
      w)
  in
  if not was_shut then Pool.shutdown t.pool
