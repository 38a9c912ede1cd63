type options = {
  grid : Grid.t;
  kind : Interconnect.kind;
  optimize : bool;
  iterative : bool;
  profile_chunk : int;
  max_steps : int;
  engine_max_iterations : int;
  watchdog_window : int;
  inject : Fault.spec option;
  profile : bool;
  tune : Accel_config.t -> Accel_config.t;
}

let default_options ?(grid = Grid.m128) ?(optimize = true) ?(iterative = true)
    ?inject ?(profile = false) () =
  {
    grid;
    kind = Interconnect.Mesh_noc;
    optimize;
    iterative;
    profile_chunk = 64;
    max_steps = 200_000_000;
    engine_max_iterations = 4_000_000;
    watchdog_window = 512;
    inject;
    profile;
    tune = Fun.id;
  }

(* MESA's fixed controller budgets: re-optimisations per offload, cycles
   to transfer architectural state each way, and consecutive faulted
   windows tolerated before a region is quarantined. *)
let max_reopts = 3
let offload_overhead = 80
let max_fault_retries = 3

(* C1 bound and trace-cache size: the pristine fabric's PEs plus
   load-store entries, at most 512 instructions. *)
let capacity (grid : Grid.t) = min 512 (Grid.pe_count grid + grid.Grid.ls_entries)

type region_report = {
  entry : int;
  size : int;
  pragma : Program.pragma option;
  accepted : bool;
  reject_reason : string option;
  tiling : int;
  pipelined : bool;
  translation_cycles : int;
  accel_iterations : int;
  accel_cycles : int;
  reconfigurations : int;
  offload_count : int;
  faults_detected : int;
  fault_retries : int;
  fault_remaps : int;
  quarantines : int;
  critical_path : int list;
  critical_path_latency : float;
  measured : Stats.snapshot option;
}

type report = {
  total_cycles : int;
  cpu_cycles : int;
  accel_cycles : int;
  overhead_cycles : int;
  mesa_busy_cycles : int;
  offloads : int;
  halt : Interp.halt;
  cpu_summary : Ooo_model.summary;
  activity : Activity.t;
  regions : region_report list;
  hier : Hierarchy.t;
  stats : Stats.snapshot;
  timeline : Trace.span list;
  attribution : Attribution.t option;
}

(* Everything MESA retains about a translated region: one entry of the
   configuration cache (§4.3), keyed by the region's entry address. A loop
   re-encountered after it was mapped skips the translate/map pipeline and
   pays only a lookup plus the bitstream rewrite. *)
type cached = {
  region : Region.t;
  dfg : Dfg.t;
  model : Perf_model.t;
  mutable config : Accel_config.t;
  mutable reconfigurations : int;
  mutable offloads : int;
  mutable translation_cycles : int;
  mutable accel_iterations : int;
  mutable accel_cycles : int;
  (* Fault-recovery bookkeeping (all zero on a clean run). *)
  mutable faults_detected : int;
  mutable fault_retries : int;
  mutable fault_remaps : int;
  mutable quarantines : int;
  mutable quarantined_until : int;
      (* loop entries the CPU still runs before MESA may re-arm the region;
         0 = not quarantined *)
  mutable quarantine_backoff : int;
  mutable abort_reason : string option;
      (* why acceleration of this region was abandoned, if it was *)
  (* Profiling only: measured weights for the profiler's critical-path
     extraction are absorbed into this dedicated model, so the iterative
     optimizer's [model] is never touched on the profiling path; [measured]
     is the last clean window's per-node/per-edge snapshot. *)
  mutable profile_model : Perf_model.t option;
  mutable measured : Stats.snapshot option;
}

(* The [controller] counter group. *)
type ctl_counters = {
  accel_cycles : Stats.counter;
  overhead_cycles : Stats.counter;
  mesa_busy_cycles : Stats.counter;
  offloads : Stats.counter;
  reconfigurations : Stats.counter;
  reopt_rounds : Stats.counter;
  translations : Stats.counter;
  translation_cycles : Stats.counter;
  regions_accepted : Stats.counter;
  regions_rejected : Stats.counter;
  config_cache_hits : Stats.counter;
  iteration_budget_aborts : Stats.counter;
}

(* The [faults] counter group: always registered, all zero on a clean run
   (which the golden test pins). *)
type fault_counters = {
  detected : Stats.counter;
  retried : Stats.counter;
  remapped : Stats.counter;
  quarantined : Stats.counter;
  config_upsets : Stats.counter;
  detection_latency : Stats.histogram;
}

(* One run under MESA. The counters are the accounting state: the report's
   cycle breakdown is read back from them, with no shadow refs. *)
type run_state = {
  opts : options;
  prog : Program.t;
  machine : Machine.t;
  hier : Hierarchy.t;
  core : Cpu_run.t;  (* the machine stepped on the OoO model *)
  cpu_model : Ooo_model.t;  (* [core]'s *)
  detector : Loop_detector.t;
  cache : (int, cached) Hashtbl.t;  (* the configuration cache *)
  cached_slot : Bytes.t;
      (* per code slot, non-zero when the cache holds a region entered
         there: the one test made at every instruction boundary *)
  activity : Activity.t;
  injector : Fault.t option;
  att : Attribution.t option;
      (* cycle attribution (`mesa profile`): pure observation — timing, the
         optimizer's decisions and the architectural state are bit-identical
         with profiling on or off *)
  reg : Stats.registry;
  regions_grp : Stats.group;
  windows : Stats.counter;
  ctl : ctl_counters;
  faults : fault_counters;
  mutable fabric : Grid.t;  (* pristine until permanent damage is masked out *)
  mutable pending : (cached * int) option;
      (* a configuration being written while the CPU keeps running: ready
         once the CPU clock passes the second component *)
  mutable timeline : Trace.span list;  (* newest first *)
  mutable rejected : region_report list;  (* newest first *)
}

(* One offload in progress: its remaining re-optimisation budget and the
   current run of consecutive faulted windows. *)
type in_flight = {
  c : cached;
  mutable budget : int;
  mutable consecutive_faults : int;
  mutable running : bool;
}

let rname entry = Printf.sprintf "r%x" entry

let cpu_cycles = Ooo_model.cycles

let wall_clock cpu_model (ctl : ctl_counters) =
  cpu_cycles cpu_model + Stats.get ctl.accel_cycles + Stats.get ctl.overhead_cycles

let wall_now st = wall_clock st.cpu_model st.ctl
let emit st sp = st.timeline <- sp :: st.timeline

let charge_att st cycles =
  match st.att with Some a -> Attribution.charge_config a cycles | None -> ()

(* A stall MESA spends rewriting the fabric: wall-clock overhead and busy
   time both. *)
let charge_stall st stall =
  Stats.add st.ctl.overhead_cycles stall;
  Stats.add st.ctl.mesa_busy_cycles stall;
  charge_att st stall

(* The unified counter registry (paper §5's performance counters): every
   subsystem registers a named group, and the whole tree is snapshotted into
   the report in registration order. *)
let create_state opts ~hier prog machine =
  let core = Cpu_run.create Ooo_model.default_config hier prog machine in
  let cpu_model = Cpu_run.model core in
  let activity = Activity.create () in
  let reg = Stats.registry () in
  Ooo_model.register_stats cpu_model (Stats.group reg "cpu");
  Hierarchy.register_stats hier (Stats.group reg "cache");
  let engine_grp = Stats.group reg "engine" in
  Activity.register_stats activity engine_grp;
  let windows = Stats.counter engine_grp "windows" in
  let ctl_grp = Stats.group reg "controller" in
  let counter = Stats.counter ctl_grp in
  let accel_cycles = counter "accel_cycles" in
  let overhead_cycles = counter "overhead_cycles" in
  let mesa_busy_cycles = counter "mesa_busy_cycles" in
  let offloads = counter "offloads" in
  let reconfigurations = counter "reconfigurations" in
  let reopt_rounds = counter "reopt_rounds" in
  let translations = counter "translations" in
  let translation_cycles = counter "translation_cycles" in
  let regions_accepted = counter "regions_accepted" in
  let regions_rejected = counter "regions_rejected" in
  let config_cache_hits = counter "config_cache_hits" in
  let iteration_budget_aborts = counter "iteration_budget_aborts" in
  let ctl =
    { accel_cycles; overhead_cycles; mesa_busy_cycles; offloads; reconfigurations;
      reopt_rounds; translations; translation_cycles; regions_accepted;
      regions_rejected; config_cache_hits; iteration_budget_aborts }
  in
  let injector = Option.map (Fault.create ~grid:opts.grid) opts.inject in
  let faults_grp = Stats.group reg "faults" in
  Stats.int_probe faults_grp "injected" (fun () ->
      match injector with Some f -> Fault.injected f | None -> 0);
  let fault_counter = Stats.counter faults_grp in
  let detected = fault_counter "detected" in
  let retried = fault_counter "retried" in
  let remapped = fault_counter "remapped" in
  let quarantined = fault_counter "quarantined" in
  let config_upsets = fault_counter "config_upsets" in
  let detection_latency = Stats.histogram faults_grp "detection_latency" in
  Stats.int_probe ctl_grp "cpu_cycles" (fun () -> cpu_cycles cpu_model);
  Stats.int_probe ctl_grp "total_cycles" (fun () -> wall_clock cpu_model ctl);
  let att = if opts.profile then Some (Attribution.create ~grid:opts.grid ()) else None in
  let regions_grp = Stats.group reg "regions" in
  {
    opts;
    prog;
    machine;
    hier;
    core;
    cpu_model;
    detector = Loop_detector.create ~capacity:(capacity opts.grid) prog;
    cache = Hashtbl.create 8;
    cached_slot = Bytes.make (Array.length (Program.code prog)) '\000';
    activity;
    injector;
    att;
    reg;
    regions_grp;
    windows;
    ctl;
    faults =
      { detected; retried; remapped; quarantined; config_upsets; detection_latency };
    fabric = opts.grid;
    pending = None;
    timeline = [];
    rejected = [];
  }

let optimized_config ~grid ~dfg ~pragma placement =
  let mo = Mem_opt.analyze dfg in
  Accel_config.with_opts ~forwarding:mo.Mem_opt.forwarding
    ~vector_groups:mo.Mem_opt.vector_groups ~prefetched:mo.Mem_opt.prefetched
    ~tiling:(Loop_opt.tiling ~grid ~dfg ~pragma) ~pipelined:true placement

(* Map [dfg]'s model on [grid] and configure the placement — shared by
   initial translation and by post-fault remapping onto a degraded fabric. *)
let configure (opts : options) ~grid ~dfg ~model ~pragma =
  match Mapper.map ~grid ~kind:opts.kind model with
  | Error e -> Error e
  | Ok placement ->
    Ok
      (opts.tune
         (if opts.optimize then optimized_config ~grid ~dfg ~pragma placement
          else Accel_config.plain placement))

(* Translate an accepted region end to end: capture through the trace cache,
   build the LDFG, map it, and bundle the optimization decisions. [grid] is
   the current (possibly fault-degraded) fabric. *)
let translate (opts : options) ~grid prog (region : Region.t) =
  let tc = Trace_cache.create ~capacity:(capacity opts.grid) in
  Trace_cache.set_region tc ~entry:region.Region.entry ~last:region.Region.back_branch_addr;
  Trace_cache.fill_from tc (fun addr ->
      Option.map Encode.to_word (Program.fetch prog addr));
  if not (Trace_cache.complete tc) then Error "trace cache capture incomplete"
  else begin
    (* Decode the captured words — the LDFG builder sees exactly what the
       hardware stored, not the convenient [Region] array. *)
    let words = Trace_cache.words tc in
    let decoded = Array.map Decode.of_word_exn words in
    let region = { region with Region.instrs = decoded } in
    match Ldfg.build region with
    | Error e -> Error e
    | Ok dfg -> (
      (* Deduplicate recomputed pure values before burning PEs on them. *)
      let dfg = if opts.optimize then fst (Cse.apply dfg) else dfg in
      let model = Perf_model.create dfg in
      match configure opts ~grid ~dfg ~model ~pragma:region.Region.pragma with
      | Error e -> Error e
      | Ok config ->
        Ok
          {
            region; dfg; model; config;
            reconfigurations = 0; offloads = 0; translation_cycles = 0;
            accel_iterations = 0; accel_cycles = 0; faults_detected = 0;
            fault_retries = 0; fault_remaps = 0; quarantines = 0;
            quarantined_until = 0; quarantine_backoff = 0; abort_reason = None;
            profile_model = None; measured = None;
          })
  end

(* A region that never ran on the fabric: rejected by the detector or by
   translation. *)
let rejected_report ~entry ~size ~pragma reason : region_report =
  {
    entry;
    size;
    pragma;
    accepted = false;
    reject_reason = Some reason;
    tiling = 1;
    pipelined = false;
    translation_cycles = 0;
    accel_iterations = 0;
    accel_cycles = 0;
    reconfigurations = 0;
    offload_count = 0;
    faults_detected = 0;
    fault_retries = 0;
    fault_remaps = 0;
    quarantines = 0;
    critical_path = [];
    critical_path_latency = 0.0;
    measured = None;
  }

(* One configuration write of [base] cycles, re-paid for every scheduled
   bitstream upset the checksum catches (each retry is itself a fresh write
   the schedule may hit again). *)
let config_write_cost st entry base =
  match st.injector with
  | None -> base
  | Some f ->
    let cost = ref base in
    while Fault.config_write f do
      Stats.incr st.faults.config_upsets;
      Stats.incr st.faults.detected;
      Stats.incr st.faults.retried;
      emit st
        (Trace.instant ~cat:"fault" ~ts:(wall_now st)
           ~args:[ ("rewrite_cycles", Json.Int base) ]
           ("config upset " ^ rname entry));
      cost := !cost + base
    done;
    !cost

let reject st ~entry ~size ~pragma reason =
  Stats.incr st.ctl.regions_rejected;
  emit st
    (Trace.instant ~cat:"detector" ~ts:(wall_now st)
       ~args:[ ("reason", Json.String reason) ]
       ("reject " ^ rname entry));
  st.rejected <- rejected_report ~entry ~size ~pragma reason :: st.rejected

(* Per-region counter subgroup, sampled from the cache entry at snapshot
   time. The detector accepts each entry once, so the name is fresh. *)
let register_region_stats st (c : cached) =
  let rg = Stats.subgroup st.regions_grp (rname c.region.Region.entry) in
  Stats.int_probe rg "offloads" (fun () -> c.offloads);
  Stats.int_probe rg "reconfigurations" (fun () -> c.reconfigurations);
  Stats.int_probe rg "accel_iterations" (fun () -> c.accel_iterations);
  Stats.int_probe rg "accel_cycles" (fun () -> c.accel_cycles);
  Stats.int_probe rg "translation_cycles" (fun () -> c.translation_cycles);
  Stats.int_probe rg "faults_detected" (fun () -> c.faults_detected);
  Stats.int_probe rg "fault_remaps" (fun () -> c.fault_remaps)

(* A freshly translated region: charge its translation to MESA's busy time
   (the CPU keeps running), cache it and arm its first offload. *)
let admit st (c : cached) =
  let entry = c.region.Region.entry in
  let tcycles =
    config_write_cost st entry
      (Config_manager.translation_cycles c.dfg c.config)
  in
  c.translation_cycles <- tcycles;
  Stats.add st.ctl.mesa_busy_cycles tcycles;
  Stats.incr st.ctl.translations;
  Stats.add st.ctl.translation_cycles tcycles;
  Stats.incr st.ctl.regions_accepted;
  register_region_stats st c;
  emit st
    (Trace.span ~cat:"mesa" ~ts:(wall_now st) ~dur:tcycles
       ~args:[ ("region_size", Json.Int (Region.size c.region)) ]
       ("translate " ^ rname entry));
  Hashtbl.replace st.cache entry c;
  Bytes.set st.cached_slot (Program.index_of_addr st.prog entry) '\001';
  st.pending <- Some (c, cpu_cycles st.cpu_model + tcycles)

(* Present a retired taken backward branch to the loop detector and act on
   its verdict: translate an accepted region, or record the rejection. *)
let detect st ~pc ~off =
  match Loop_detector.feed st.detector ~pc ~off with
  | None -> ()
  | Some (Loop_detector.Accepted region) -> (
    match translate st.opts ~grid:st.fabric st.prog region with
    | Ok c -> admit st c
    | Error reason ->
      reject st ~entry:region.Region.entry ~size:(Region.size region)
        ~pragma:region.Region.pragma reason)
  | Some (Loop_detector.Rejected { entry; reason }) ->
    reject st ~entry ~size:0 ~pragma:None reason

(* With no configuration pending and the PC at a cached region's entry: the
   region is either quarantined — the CPU runs the loop, and each arrival
   at the entry burns down the exponential backoff — or re-armed, its
   bitstream rewritten while the CPU keeps iterating. *)
let arm st =
  match Hashtbl.find_opt st.cache st.machine.Machine.pc with
  | None -> ()
  | Some c when c.quarantined_until > 0 ->
    c.quarantined_until <- c.quarantined_until - 1
  | Some c ->
    let entry = c.region.Region.entry in
    let cost =
      config_write_cost st entry (Config_manager.cache_hit_cycles c.config c.dfg)
    in
    Stats.add st.ctl.mesa_busy_cycles cost;
    Stats.incr st.ctl.config_cache_hits;
    emit st (Trace.span ~cat:"mesa" ~ts:(wall_now st) ~dur:cost ("rearm " ^ rname entry));
    st.pending <- Some (c, cpu_cycles st.cpu_model + cost)

(* Iteration-boundary checkpoint: the PC sits at the loop entry here (both
   at offload start and after a profiling pause), so restoring it hands the
   loop back to the CPU — or to a retried window — in a bit-exact state.
   Only paid when a fault schedule is armed. *)
let checkpoint st =
  match st.injector with
  | None -> None
  | Some _ -> Some (Machine.copy st.machine (), Main_memory.copy st.machine.Machine.mem)

let restore st = function
  | Some (m, mem) ->
    Machine.restore st.machine ~from:m;
    Main_memory.restore st.machine.Machine.mem ~from:mem
  | None -> ()

(* Hand the region back to the CPU with exponential backoff before it may
   be re-armed. *)
let quarantine st o reason =
  let c = o.c in
  c.quarantine_backoff <-
    (if c.quarantine_backoff = 0 then 8 else c.quarantine_backoff * 2);
  c.quarantined_until <- c.quarantine_backoff;
  c.quarantines <- c.quarantines + 1;
  c.abort_reason <- Some reason;
  Stats.incr st.faults.quarantined;
  emit st
    (Trace.instant ~cat:"fault" ~ts:(wall_now st)
       ~args:[ ("reason", Json.String reason); ("backoff", Json.Int c.quarantine_backoff) ]
       ("quarantine " ^ rname c.region.Region.entry));
  o.running <- false

(* New permanent damage: mask it out of the pristine geometry (cumulatively)
   and re-run placement on what is left. *)
let remap st o f =
  let c = o.c in
  let entry = c.region.Region.entry in
  st.fabric <- Grid.mask st.opts.grid (Fault.dead_coords f);
  match
    configure st.opts ~grid:st.fabric ~dfg:c.dfg ~model:c.model
      ~pragma:c.region.Region.pragma
  with
  | Error e -> quarantine st o ("remap failed: " ^ e)
  | Ok config ->
    let stall =
      config_write_cost st entry
        (Mapper.map_cycles c.dfg + Accel_config.config_cycles config c.dfg)
    in
    let masked = List.length st.fabric.Grid.masked in
    c.config <- config;
    c.fault_remaps <- c.fault_remaps + 1;
    Stats.incr st.faults.remapped;
    charge_stall st stall;
    o.consecutive_faults <- 0;
    emit st
      (Trace.span ~cat:"fault" ~ts:(wall_now st) ~dur:stall
         ~args:[ ("masked_pes", Json.Int masked) ]
         ("remap " ^ rname entry))

(* The recovery ladder for a faulted window: restore the checkpoint, then
   retry (transient), remap around masked damage (permanent), or quarantine
   and let the CPU finish bit-exactly. *)
let recover st o ~checkpoint ~window_start ~kinds ~latency ~watchdog ~wasted =
  let c = o.c in
  restore st checkpoint;
  Stats.incr st.windows;
  Stats.incr st.faults.detected;
  Stats.observe st.faults.detection_latency (float_of_int latency);
  c.faults_detected <- c.faults_detected + 1;
  (* The discarded window and the state transfer back are recovery overhead,
     not useful accelerator work. The profiler discards the window's
     attribution and re-charges the same cycles as Config, so closure
     against the run's wall-clock accounting is preserved. *)
  let lost = wasted + offload_overhead in
  Stats.add st.ctl.overhead_cycles lost;
  (match st.att with
  | Some a ->
    Attribution.abort_window a;
    Attribution.charge_config a lost
  | None -> ());
  emit st
    (Trace.span ~cat:"fault" ~ts:window_start ~dur:(max 1 wasted)
       ~args:
         [
           ("kinds", Json.String (String.concat "+" (List.map Fault.kind_name kinds)));
           ("detection_latency", Json.Int latency);
           ("watchdog", Json.Bool watchdog);
         ]
       ("fault " ^ rname c.region.Region.entry));
  let f = Option.get st.injector in
  if List.exists (fun k -> k = Fault.Permanent_pe || k = Fault.Link_down) kinds then begin
    if List.length (Fault.dead f) > List.length st.fabric.Grid.masked then remap st o f
    else quarantine st o "permanent fault persists after remap"
  end
  else begin
    o.consecutive_faults <- o.consecutive_faults + 1;
    if o.consecutive_faults > max_fault_retries then
      quarantine st o "persistent faults exceeded retry budget"
    else begin
      c.fault_retries <- c.fault_retries + 1;
      Stats.incr st.faults.retried;
      emit st
        (Trace.instant ~cat:"fault" ~ts:(wall_now st)
           ~args:[ ("attempt", Json.Int o.consecutive_faults) ]
           ("retry " ^ rname c.region.Region.entry))
    end
  end

let reconfigure st o config ~stall ~previous ~latency =
  let c = o.c in
  c.config <- config;
  c.reconfigurations <- c.reconfigurations + 1;
  Stats.incr st.ctl.reconfigurations;
  let stall = config_write_cost st c.region.Region.entry stall in
  emit st
    (Trace.span ~cat:"mesa" ~ts:(wall_now st) ~dur:stall
       ~args:
         [
           ("modeled_latency_before", Json.Float previous);
           ("modeled_latency_after", Json.Float latency);
         ]
       ("reconfigure " ^ rname c.region.Region.entry));
  charge_stall st stall

(* After a clean profiling window: absorb its counters into the region's
   model and ask the optimizer for a better placement. A proposal is adopted
   only if the modeled per-iteration gain can plausibly amortize the stall
   over a horizon like the one already observed; otherwise, or when the
   optimizer keeps the current placement, profiling stops. *)
let reoptimise st o res =
  let c = o.c in
  o.budget <- o.budget - 1;
  Stats.incr st.ctl.reopt_rounds;
  Optimizer.absorb c.model res;
  match
    Optimizer.step ~grid:st.fabric ~kind:st.opts.kind ~model:c.model
      ~current:c.config
  with
  | Optimizer.Keep _ -> o.budget <- 0
  | Optimizer.Adopt { config; latency; previous } ->
    let stall = Accel_config.config_cycles config c.dfg in
    let horizon =
      float_of_int (max (4 * st.opts.profile_chunk) c.accel_iterations)
    in
    let gain = (previous -. latency) /. float_of_int config.Accel_config.tiling in
    if gain *. horizon > float_of_int stall then
      reconfigure st o config ~stall ~previous ~latency
    else o.budget <- 0

(* The safety budget is a distinct abort, not a silent pause: hand the loop
   back to the CPU (the paused state is architecturally consistent) and stop
   re-arming this region. *)
let budget_abort st o (res : Engine.result) =
  let c = o.c in
  Stats.incr st.ctl.iteration_budget_aborts;
  c.abort_reason <- Some "iteration budget exhausted";
  c.quarantined_until <- max_int;
  emit st
    (Trace.instant ~cat:"mesa" ~ts:(wall_now st)
       ~args:[ ("iterations", Json.Int res.Engine.iterations) ]
       ("budget abort " ^ rname c.region.Region.entry));
  o.running <- false

(* A window that ran clean: account it, then finish, abort or reoptimise. *)
let commit_window st o ~window_start (res : Engine.result) =
  let c = o.c in
  o.consecutive_faults <- 0;
  Stats.add st.ctl.accel_cycles res.Engine.cycles;
  Stats.incr st.windows;
  Activity.add st.activity res.Engine.activity;
  c.accel_iterations <- c.accel_iterations + res.Engine.iterations;
  c.accel_cycles <- c.accel_cycles + res.Engine.cycles;
  if Option.is_some st.att then begin
    let pm =
      match c.profile_model with
      | Some pm -> pm
      | None ->
        let pm = Perf_model.create c.dfg in
        c.profile_model <- Some pm;
        pm
    in
    Optimizer.absorb pm res;
    c.measured <- Some res.Engine.measured
  end;
  emit st
    (Trace.span ~cat:"fabric" ~ts:window_start ~dur:res.Engine.cycles
       ~args:
         [
           ("iterations", Json.Int res.Engine.iterations);
           ("completed", Json.Bool res.Engine.completed);
         ]
       ("offload " ^ rname c.region.Region.entry));
  if res.Engine.completed then o.running <- false
  else if res.Engine.budget_exhausted then budget_abort st o res
  else if o.budget > 0 then reoptimise st o res

(* One engine window: a profiling window of [profile_chunk] iterations while
   re-optimisation budget remains, the rest of the loop otherwise. *)
let offload_window st o =
  let stop_after = if o.budget > 0 then Some st.opts.profile_chunk else None in
  let window_start = wall_now st in
  (match st.att with
  | Some a -> Attribution.begin_window a ~at:(float_of_int window_start)
  | None -> ());
  let checkpoint = checkpoint st in
  let outcome =
    try
      `R
        (Engine.execute ?stop_after ~max_iterations:st.opts.engine_max_iterations
           ~watchdog_window:st.opts.watchdog_window ?fault:st.injector
           ?attribution:st.att ~config:o.c.config ~dfg:o.c.dfg ~machine:st.machine
           ~hier:st.hier ())
    with exn -> (
      match st.injector with
      | Some f when Fault.window_corrupted f -> `Crashed (Fault.window_kinds f)
      | Some _ | None -> raise exn)
  in
  match outcome with
  | `Crashed kinds ->
    (* A corrupted value escaped as a wild memory access before the window
       ended: an immediately detected fault. *)
    recover st o ~checkpoint ~window_start ~kinds ~latency:0 ~watchdog:false ~wasted:0
  | `R (Error e) -> failwith ("MESA engine failure: " ^ e)
  | `R (Ok res) -> (
    match res.Engine.fault with
    | Some d ->
      recover st o ~checkpoint ~window_start ~kinds:d.Engine.d_kinds
        ~latency:d.Engine.d_latency ~watchdog:d.Engine.d_watchdog
        ~wasted:res.Engine.cycles
    | None -> commit_window st o ~window_start res)

(* Transfer control to the fabric until the loop completes, is aborted or is
   quarantined; the CPU then resumes at the PC the engine left. *)
let offload st (c : cached) =
  (* Architectural state transfer both ways: configuration overhead. *)
  Stats.add st.ctl.overhead_cycles (2 * offload_overhead);
  charge_att st (2 * offload_overhead);
  Stats.incr st.ctl.offloads;
  c.offloads <- c.offloads + 1;
  let budget = if st.opts.iterative then max_reopts else 0 in
  let o = { c; budget; consecutive_faults = 0; running = true } in
  while o.running do offload_window st o done

let accepted_report (c : cached) : region_report =
  (* Critical path over measured weights when the profiler ran (its side
     model absorbs every clean window); the optimizer's model — measured
     under iterative mode, static otherwise — when not. *)
  let cp_model = Option.value c.profile_model ~default:c.model in
  {
    entry = c.region.Region.entry;
    size = Region.size c.region;
    pragma = c.region.Region.pragma;
    accepted = true;
    reject_reason = c.abort_reason;
    tiling = c.config.Accel_config.tiling;
    pipelined = c.config.Accel_config.pipelined;
    translation_cycles = c.translation_cycles;
    accel_iterations = c.accel_iterations;
    accel_cycles = c.accel_cycles;
    reconfigurations = c.reconfigurations;
    offload_count = c.offloads;
    faults_detected = c.faults_detected;
    fault_retries = c.fault_retries;
    fault_remaps = c.fault_remaps;
    quarantines = c.quarantines;
    critical_path = Perf_model.critical_path cp_model;
    critical_path_latency = Perf_model.iteration_latency cp_model;
    measured = c.measured;
  }

let finish st halt : report =
  let cpu_summary = Ooo_model.summary st.cpu_model in
  let accepted = Hashtbl.fold (fun _ c acc -> c :: acc) st.cache [] in
  {
    total_cycles = wall_clock st.cpu_model st.ctl;
    cpu_cycles = cpu_summary.Ooo_model.cycles;
    accel_cycles = Stats.get st.ctl.accel_cycles;
    overhead_cycles = Stats.get st.ctl.overhead_cycles;
    mesa_busy_cycles = Stats.get st.ctl.mesa_busy_cycles;
    offloads = Stats.get st.ctl.offloads;
    halt;
    cpu_summary;
    activity = st.activity;
    regions = List.map accepted_report accepted @ List.rev st.rejected;
    hier = st.hier;
    stats = Stats.snapshot st.reg;
    timeline = List.rev st.timeline;
    attribution = st.att;
  }

(* The instruction-boundary loop: the CPU steps the program on the OoO
   model, and the loop detector sees only the taken backward branches.
   Offloads and re-arms happen at instruction boundaries, when the PC sits
   at a loop entry; the configuration cache is consulted only where it
   holds an entry. *)
let run ?options ?(hier = Hierarchy.default_config) prog machine =
  let opts = match options with Some o -> o | None -> default_options () in
  let st = create_state opts ~hier:(Hierarchy.create hier) prog machine in
  let code = Program.code prog and base = Program.base prog in
  let rec go steps =
    if steps >= opts.max_steps then Interp.Step_limit
    else begin
      let pc = machine.Machine.pc in
      (match st.pending with
      | Some (c, ready_at) ->
        if pc = c.region.Region.entry && cpu_cycles st.cpu_model >= ready_at then begin
          st.pending <- None;
          offload st c
        end
      | None ->
        let i = Interp.slot code base pc in
        if i >= 0 && Bytes.unsafe_get st.cached_slot i <> '\000' then arm st);
      (* An offload hands the CPU the loop's exit PC. *)
      let pc = machine.Machine.pc in
      match Cpu_run.step st.core with
      | Cpu_run.Retired -> go (steps + 1)
      | Cpu_run.Backward_taken ->
        detect st ~pc ~off:(machine.Machine.pc - pc);
        go (steps + 1)
      | Cpu_run.Halted -> Cpu_run.halt st.core
    end
  in
  finish st (go 0)

let speedup ~baseline_cycles report =
  if report.total_cycles = 0 then 0.0
  else float_of_int baseline_cycles /. float_of_int report.total_cycles

let render ?(faults = false) report =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "MESA breakdown: cpu %d + accel %d + overhead %d cycles; %d offload(s); translation busy %d cycles\n"
    report.cpu_cycles report.accel_cycles report.overhead_cycles report.offloads
    report.mesa_busy_cycles;
  List.iter
    (fun r ->
      if r.accepted then begin
        Printf.bprintf b
          "region 0x%x: %d instrs, tiling x%d, %d iterations on fabric, %d reconfiguration(s)\n"
          r.entry r.size r.tiling r.accel_iterations r.reconfigurations;
        if r.faults_detected > 0 || r.reject_reason <> None then
          Printf.bprintf b
            "  faults: %d detected, %d retried, %d remap(s), %d quarantine(s)%s\n"
            r.faults_detected r.fault_retries r.fault_remaps r.quarantines
            (match r.reject_reason with
            | Some why -> "; aborted: " ^ why
            | None -> "")
      end
      else
        Printf.bprintf b "region 0x%x rejected: %s\n" r.entry
          (Option.value r.reject_reason ~default:"?"))
    report.regions;
  (if faults then
     let g p = Option.value (Stats.find_int report.stats ("faults." ^ p)) ~default:0 in
     Printf.bprintf b
       "fault summary: %d injected, %d detected, %d retried, %d remapped, %d quarantined, %d config upset(s)\n"
       (g "injected") (g "detected") (g "retried") (g "remapped")
       (g "quarantined") (g "config_upsets"));
  Buffer.contents b
