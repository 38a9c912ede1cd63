type options = {
  grid : Grid.t;
  kind : Interconnect.kind;
  detector : Loop_detector.config;
  mapper : Mapper.config;
  cpu : Ooo_model.config;
  optimize : bool;
  iterative : bool;
  profile_chunk : int;
  max_reopts : int;
  offload_overhead : int;
  max_steps : int;
  engine_max_iterations : int;
  watchdog_window : int;
  max_fault_retries : int;
  inject : Fault.spec option;
  profile : bool;
  tune : Accel_config.t -> Accel_config.t;
}

let default_options ?(grid = Grid.m128) ?(optimize = true) ?(iterative = true)
    ?inject ?(profile = false) () =
  let capacity = min 512 (Grid.pe_count grid + grid.Grid.ls_entries) in
  {
    grid;
    kind = Interconnect.Mesh_noc;
    detector = { Loop_detector.default_config with Loop_detector.capacity };
    mapper = Mapper.default_config;
    cpu = Ooo_model.default_config;
    optimize;
    iterative;
    profile_chunk = 64;
    max_reopts = 3;
    offload_overhead = 80;
    max_steps = 200_000_000;
    engine_max_iterations = 4_000_000;
    watchdog_window = 512;
    max_fault_retries = 3;
    inject;
    profile;
    tune = Fun.id;
  }

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

let src = Logs.Src.create "mesa.controller" ~doc:"MESA controller"

module Log = (val Logs.src_log src : Logs.LOG)

(* Build the optimization bundle for [dfg]'s model on [grid] — shared by
   initial translation and by post-fault remapping onto a degraded fabric. *)
let configure opts ~grid ~dfg ~model ~pragma =
  match Mapper.map ~config:opts.mapper ~grid ~kind:opts.kind model with
  | Error e -> Error e
  | Ok placement ->
    let mo = if opts.optimize then Mem_opt.analyze dfg else Mem_opt.none in
    let ld =
      if opts.optimize then Loop_opt.decide ~grid ~dfg ~pragma
      else Loop_opt.no_opt
    in
    Ok
      (opts.tune
         (Accel_config.with_opts ~forwarding:mo.Mem_opt.forwarding
            ~vector_groups:mo.Mem_opt.vector_groups ~prefetched:mo.Mem_opt.prefetched
            ~tiling:ld.Loop_opt.tiling ~pipelined:ld.Loop_opt.pipelined placement))

(* Translate an accepted region end to end: capture through the trace cache,
   build the LDFG, map it, and bundle the optimization decisions. [grid] is
   the current (possibly fault-degraded) fabric. *)
let translate opts ~grid prog (region : Region.t) =
  let tc = Trace_cache.create ~capacity:opts.detector.Loop_detector.capacity in
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
            Config_manager.region;
            dfg;
            model;
            config;
            reconfigurations = 0;
            offloads = 0;
            translation_cycles = 0;
            accel_iterations = 0;
            accel_cycles = 0;
            faults_detected = 0;
            fault_retries = 0;
            fault_remaps = 0;
            quarantines = 0;
            quarantined_until = 0;
            quarantine_backoff = 0;
            abort_reason = None;
          })
  end

(* A region that never ran on the fabric: rejected by the detector or by
   translation. *)
let rejected_report ~entry ~size ~pragma reason =
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

let run ?options ?hier ?stats prog machine =
  let opts = match options with Some o -> o | None -> default_options () in
  let hier =
    match hier with Some h -> h | None -> Hierarchy.create Hierarchy.default_config
  in
  let cpu_model = Ooo_model.create opts.cpu hier in
  let detector = Loop_detector.create ~config:opts.detector prog in
  let cache = Config_manager.create () in
  let activity = Activity.create () in
  (* The unified counter registry (paper §5's performance counters): every
     subsystem registers a named group, and the whole tree is snapshotted
     into the report. The counters below *are* the accounting state — no
     shadow refs. *)
  let reg = match stats with Some r -> r | None -> Stats.registry () in
  Ooo_model.register_stats cpu_model (Stats.group reg "cpu");
  Hierarchy.register_stats hier (Stats.group reg "cache");
  let engine_grp = Stats.group reg "engine" in
  Activity.register_stats activity engine_grp;
  let windows = Stats.counter engine_grp "windows" in
  let ctl = Stats.group reg "controller" in
  let accel_cycles = Stats.counter ctl "accel_cycles" in
  let overhead = Stats.counter ctl "overhead_cycles" in
  let mesa_busy = Stats.counter ctl "mesa_busy_cycles" in
  let offloads = Stats.counter ctl "offloads" in
  let reconfigurations = Stats.counter ctl "reconfigurations" in
  let reopt_rounds = Stats.counter ctl "reopt_rounds" in
  let translations = Stats.counter ctl "translations" in
  let translation_cycles_c = Stats.counter ctl "translation_cycles" in
  let regions_accepted = Stats.counter ctl "regions_accepted" in
  let regions_rejected = Stats.counter ctl "regions_rejected" in
  let config_cache_hits = Stats.counter ctl "config_cache_hits" in
  let budget_aborts = Stats.counter ctl "iteration_budget_aborts" in
  (* Fault injection and recovery. The [faults] group is always registered
     (all-zero on a clean run, which the golden test pins). *)
  let injector =
    match opts.inject with
    | None -> None
    | Some sp -> Some (Fault.create ~grid:opts.grid sp)
  in
  (* The live fabric: pristine until permanent damage is masked out. *)
  let fabric = ref opts.grid in
  let faults_grp = Stats.group reg "faults" in
  Stats.int_probe faults_grp "injected" (fun () ->
      match injector with Some f -> Fault.injected f | None -> 0);
  let f_detected = Stats.counter faults_grp "detected" in
  let f_retried = Stats.counter faults_grp "retried" in
  let f_remapped = Stats.counter faults_grp "remapped" in
  let f_quarantined = Stats.counter faults_grp "quarantined" in
  let f_config_upsets = Stats.counter faults_grp "config_upsets" in
  let f_latency = Stats.histogram faults_grp "detection_latency" in
  let cpu_cycles_now () = (Ooo_model.summary cpu_model).Ooo_model.cycles in
  Stats.int_probe ctl "cpu_cycles" cpu_cycles_now;
  Stats.int_probe ctl "total_cycles" (fun () ->
      cpu_cycles_now () + Stats.get accel_cycles + Stats.get overhead);
  (* Cycle attribution (`mesa profile`): the collector is pure observation —
     the engine's timing, the optimizer's decisions and the architectural
     state are bit-identical with profiling on or off. Measured weights for
     the profiler's critical-path extraction are absorbed into dedicated
     per-region models so the iterative optimizer's model is never touched
     on the profiling path. *)
  let att =
    if opts.profile then Some (Attribution.create ~grid:opts.grid ()) else None
  in
  let profile_models : (int, Perf_model.t) Hashtbl.t = Hashtbl.create 8 in
  (* Last clean window's measured per-node/per-edge snapshot, per region —
     surfaced in the region report so a service-level profiling window can
     feed the cost model's measured oracles without re-running the engine. *)
  let measured_snaps : (int, Stats.snapshot) Hashtbl.t = Hashtbl.create 8 in
  let charge_att cycles =
    match att with Some a -> Attribution.charge_config a cycles | None -> ()
  in
  let regions_grp = Stats.group reg "regions" in
  let timeline : Trace.span list ref = ref [] in
  let wall_now () = cpu_cycles_now () + Stats.get accel_cycles + Stats.get overhead in
  let emit sp = timeline := sp :: !timeline in
  let rname entry = Printf.sprintf "r%x" entry in
  (* One configuration write of [base] cycles, re-paid for every scheduled
     bitstream upset the checksum catches (each retry is itself a fresh
     write the schedule may hit again). *)
  let config_write_cost entry base =
    match injector with
    | None -> base
    | Some f ->
      let cost = ref base in
      while Fault.config_write f do
        Stats.incr f_config_upsets;
        Stats.incr f_detected;
        Stats.incr f_retried;
        emit
          (Trace.instant ~cat:"fault" ~ts:(wall_now ())
             ~args:[ ("rewrite_cycles", Json.Int base) ]
             ("config upset " ^ rname entry));
        cost := !cost + base
      done;
      !cost
  in
  let rejected : region_report list ref = ref [] in
  (* A configuration being written while the CPU keeps running: ready once
     the CPU clock passes [ready_at]. *)
  let pending : (Config_manager.cached * int) option ref = ref None in

  let run_offload (c : Config_manager.cached) =
    Log.debug (fun m -> m "offloading %a" Region.pp c.Config_manager.region);
    Stats.add overhead (2 * opts.offload_overhead);
    (* Architectural state transfer both ways: configuration overhead. *)
    charge_att (2 * opts.offload_overhead);
    Stats.incr offloads;
    c.Config_manager.offloads <- c.Config_manager.offloads + 1;
    let entry = c.Config_manager.region.Region.entry in
    let budget = ref (if opts.iterative then opts.max_reopts else 0) in
    let running = ref true in
    let consecutive_faults = ref 0 in
    while !running do
      let stop_after = if !budget > 0 then Some opts.profile_chunk else None in
      let window_start = wall_now () in
      (match att with
      | Some a -> Attribution.begin_window a ~at:(float_of_int window_start)
      | None -> ());
      (* Iteration-boundary checkpoint: the PC sits at the loop entry here
         (both at offload start and after a profiling pause), so restoring
         it hands the loop back to the CPU — or to a retried window — in a
         bit-exact state. Only paid when a fault schedule is armed. *)
      let checkpoint =
        match injector with
        | None -> None
        | Some _ ->
          Some (Machine.copy machine (), Main_memory.copy machine.Machine.mem)
      in
      let restore () =
        match checkpoint with
        | Some (m, mem) ->
          Machine.restore machine ~from:m;
          Main_memory.restore machine.Machine.mem ~from:mem
        | None -> ()
      in
      let quarantine reason =
        c.Config_manager.quarantine_backoff <-
          (if c.Config_manager.quarantine_backoff = 0 then 8
           else c.Config_manager.quarantine_backoff * 2);
        c.Config_manager.quarantined_until <- c.Config_manager.quarantine_backoff;
        c.Config_manager.quarantines <- c.Config_manager.quarantines + 1;
        c.Config_manager.abort_reason <- Some reason;
        Stats.incr f_quarantined;
        emit
          (Trace.instant ~cat:"fault" ~ts:(wall_now ())
             ~args:
               [
                 ("reason", Json.String reason);
                 ("backoff", Json.Int c.Config_manager.quarantine_backoff);
               ]
             ("quarantine " ^ rname entry));
        Log.debug (fun m ->
            m "quarantining %a: %s" Region.pp c.Config_manager.region reason);
        running := false
      in
      (* The recovery ladder: restore the checkpoint, then retry (transient),
         remap around masked damage (permanent), or quarantine with
         exponential backoff and let the CPU finish bit-exactly. *)
      let handle_fault ~kinds ~latency ~watchdog ~wasted =
        restore ();
        Stats.incr windows;
        Stats.incr f_detected;
        Stats.observe f_latency (float_of_int latency);
        c.Config_manager.faults_detected <- c.Config_manager.faults_detected + 1;
        (* The discarded window and the state transfer back are recovery
           overhead, not useful accelerator work. The profiler discards the
           window's attribution and re-charges the same cycles as Config, so
           closure against the run's wall-clock accounting is preserved. *)
        Stats.add overhead (wasted + opts.offload_overhead);
        (match att with
        | Some a ->
          Attribution.abort_window a;
          Attribution.charge_config a (wasted + opts.offload_overhead)
        | None -> ());
        emit
          (Trace.span ~cat:"fault" ~ts:window_start ~dur:(max 1 wasted)
             ~args:
               [
                 ( "kinds",
                   Json.String
                     (String.concat "+" (List.map Fault.kind_name kinds)) );
                 ("detection_latency", Json.Int latency);
                 ("watchdog", Json.Bool watchdog);
               ]
             ("fault " ^ rname entry));
        let f = Option.get injector in
        let permanent =
          List.exists
            (fun k -> k = Fault.Permanent_pe || k = Fault.Link_down)
            kinds
        in
        if permanent then begin
          if List.length (Fault.dead f) > List.length (!fabric).Grid.masked
          then begin
            (* New permanent damage: mask it out of the pristine geometry
               (cumulatively) and re-run placement on what is left. *)
            fabric := Grid.mask opts.grid (Fault.dead_coords f);
            match
              configure opts ~grid:!fabric ~dfg:c.Config_manager.dfg
                ~model:c.Config_manager.model
                ~pragma:c.Config_manager.region.Region.pragma
            with
            | Ok config' ->
              let stall =
                config_write_cost entry
                  (Mapper.map_cycles opts.mapper c.Config_manager.dfg
                  + Accel_config.config_cycles config' c.Config_manager.dfg)
              in
              c.Config_manager.config <- config';
              c.Config_manager.fault_remaps <-
                c.Config_manager.fault_remaps + 1;
              Stats.incr f_remapped;
              Stats.add overhead stall;
              Stats.add mesa_busy stall;
              charge_att stall;
              consecutive_faults := 0;
              emit
                (Trace.span ~cat:"fault" ~ts:(wall_now ()) ~dur:stall
                   ~args:
                     [
                       ( "masked_pes",
                         Json.Int (List.length (!fabric).Grid.masked) );
                     ]
                   ("remap " ^ rname entry));
              Log.debug (fun m ->
                  m "remapped %a around %d masked PEs" Region.pp
                    c.Config_manager.region
                    (List.length (!fabric).Grid.masked))
            | Error e -> quarantine ("remap failed: " ^ e)
          end
          else quarantine "permanent fault persists after remap"
        end
        else begin
          incr consecutive_faults;
          if !consecutive_faults > opts.max_fault_retries then
            quarantine "persistent faults exceeded retry budget"
          else begin
            c.Config_manager.fault_retries <-
              c.Config_manager.fault_retries + 1;
            Stats.incr f_retried;
            emit
              (Trace.instant ~cat:"fault" ~ts:(wall_now ())
                 ~args:[ ("attempt", Json.Int !consecutive_faults) ]
                 ("retry " ^ rname entry))
          end
        end
      in
      let outcome =
        try
          `R
            (Engine.execute ?stop_after
               ~max_iterations:opts.engine_max_iterations
               ~watchdog_window:opts.watchdog_window ?fault:injector
               ?attribution:att
               ~config:c.Config_manager.config ~dfg:c.Config_manager.dfg
               ~machine ~hier ())
        with exn -> (
          match injector with
          | Some f when Fault.window_corrupted f ->
            `Crashed (Fault.window_kinds f)
          | Some _ | None -> raise exn)
      in
      match outcome with
      | `Crashed kinds ->
        (* A corrupted value escaped as a wild memory access before the
           window ended: an immediately detected fault. *)
        handle_fault ~kinds ~latency:0 ~watchdog:false ~wasted:0
      | `R (Error e) -> failwith ("MESA engine failure: " ^ e)
      | `R (Ok res) -> (
        match res.Engine.fault with
        | Some d ->
          handle_fault ~kinds:d.Engine.d_kinds ~latency:d.Engine.d_latency
            ~watchdog:d.Engine.d_watchdog ~wasted:res.Engine.cycles
        | None ->
        consecutive_faults := 0;
        Stats.add accel_cycles res.Engine.cycles;
        Stats.incr windows;
        Activity.add activity res.Engine.activity;
        c.Config_manager.accel_iterations <-
          c.Config_manager.accel_iterations + res.Engine.iterations;
        c.Config_manager.accel_cycles <- c.Config_manager.accel_cycles + res.Engine.cycles;
        (match att with
        | Some _ ->
          (* Absorb this window's counters into the profiler's own model so
             critical-path extraction sees measured weights even when the
             iterative optimizer is off (or out of budget). *)
          let pm =
            match Hashtbl.find_opt profile_models entry with
            | Some pm -> pm
            | None ->
              let pm = Perf_model.create c.Config_manager.dfg in
              Hashtbl.add profile_models entry pm;
              pm
          in
          Optimizer.absorb pm res;
          Hashtbl.replace measured_snaps entry res.Engine.measured
        | None -> ());
        emit
          (Trace.span ~cat:"fabric" ~ts:window_start ~dur:res.Engine.cycles
             ~args:
               [
                 ("iterations", Json.Int res.Engine.iterations);
                 ("completed", Json.Bool res.Engine.completed);
               ]
             ("offload " ^ rname entry));
        if res.Engine.completed then running := false
        else if res.Engine.budget_exhausted then begin
          (* The safety budget is a distinct abort, not a silent pause: hand
             the loop back to the CPU (the paused state is architecturally
             consistent) and stop re-arming this region. *)
          Stats.incr budget_aborts;
          c.Config_manager.abort_reason <- Some "iteration budget exhausted";
          c.Config_manager.quarantined_until <- max_int;
          emit
            (Trace.instant ~cat:"mesa" ~ts:(wall_now ())
               ~args:[ ("iterations", Json.Int res.Engine.iterations) ]
               ("budget abort " ^ rname entry));
          running := false
        end
        else if !budget > 0 then begin
          decr budget;
          Stats.incr reopt_rounds;
          Optimizer.absorb c.Config_manager.model res;
          match
            Optimizer.step ~grid:!fabric ~kind:opts.kind ~mapper:opts.mapper
              ~model:c.Config_manager.model ~current:c.Config_manager.config
          with
          | Optimizer.Adopt { config = config'; latency; previous } ->
            let stall = Accel_config.config_cycles config' c.Config_manager.dfg in
            (* Only pay the reconfiguration if the modeled per-iteration gain
               can plausibly amortize the stall over a horizon like the one
               already observed. *)
            let horizon =
              float_of_int (max (4 * opts.profile_chunk) c.Config_manager.accel_iterations)
            in
            let gain = (previous -. latency) /. float_of_int config'.Accel_config.tiling in
            if gain *. horizon > float_of_int stall then begin
              Log.debug (fun m ->
                  m "reconfiguring %a: modeled latency %.1f -> %.1f" Region.pp
                    c.Config_manager.region previous latency);
              c.Config_manager.config <- config';
              c.Config_manager.reconfigurations <- c.Config_manager.reconfigurations + 1;
              Stats.incr reconfigurations;
              let stall = config_write_cost entry stall in
              emit
                (Trace.span ~cat:"mesa" ~ts:(wall_now ()) ~dur:stall
                   ~args:
                     [
                       ("modeled_latency_before", Json.Float previous);
                       ("modeled_latency_after", Json.Float latency);
                     ]
                   ("reconfigure " ^ rname entry));
              Stats.add overhead stall;
              Stats.add mesa_busy stall;
              charge_att stall
            end
            else budget := 0
          | Optimizer.Keep _ -> budget := 0
        end)
    done
  in

  let halt = ref None in
  let steps = ref 0 in
  while !halt = None do
    if !steps >= opts.max_steps then halt := Some Interp.Step_limit
    else begin
      (* Offload / re-arm checks happen at instruction boundaries, i.e. when
         the PC sits at the loop entry. *)
      (match !pending with
      | Some (c, ready_at)
        when machine.Machine.pc = c.Config_manager.region.Region.entry
             && cpu_cycles_now () >= ready_at ->
        pending := None;
        run_offload c
      | Some _ -> ()
      | None -> (
        match Config_manager.find cache machine.Machine.pc with
        | Some c when c.Config_manager.quarantined_until > 0 ->
          (* Quarantined region: the CPU runs the loop; each entry
             encounter burns down the exponential backoff before MESA is
             allowed to re-arm it. *)
          c.Config_manager.quarantined_until <-
            c.Config_manager.quarantined_until - 1
        | Some c ->
          (* Config-cache hit on re-entering a known loop: rewrite the
             bitstream while the CPU keeps iterating. *)
          let cost =
            config_write_cost c.Config_manager.region.Region.entry
              (Config_manager.cache_hit_cycles c.Config_manager.config
                 c.Config_manager.dfg)
          in
          Stats.add mesa_busy cost;
          Stats.incr config_cache_hits;
          emit
            (Trace.span ~cat:"mesa" ~ts:(wall_now ()) ~dur:cost
               ("rearm " ^ rname c.Config_manager.region.Region.entry));
          pending := Some (c, cpu_cycles_now () + cost)
        | None -> ()));
      match Interp.step prog machine with
      | Error h -> halt := Some h
      | Ok ev -> (
        incr steps;
        Ooo_model.feed cpu_model ev;
        match Loop_detector.feed detector ev with
        | Some (Loop_detector.Accepted region) -> (
          match translate opts ~grid:!fabric prog region with
          | Ok cached ->
            let tcycles =
              config_write_cost region.Region.entry
                (Config_manager.translation_cycles opts.mapper
                   cached.Config_manager.dfg cached.Config_manager.config)
            in
            cached.Config_manager.translation_cycles <- tcycles;
            Stats.add mesa_busy tcycles;
            Stats.incr translations;
            Stats.add translation_cycles_c tcycles;
            Stats.incr regions_accepted;
            (* Per-region counter subgroup, sampled from the cached record at
               snapshot time. *)
            (try
               let rg = Stats.subgroup regions_grp (rname region.Region.entry) in
               Stats.int_probe rg "offloads" (fun () -> cached.Config_manager.offloads);
               Stats.int_probe rg "reconfigurations" (fun () ->
                   cached.Config_manager.reconfigurations);
               Stats.int_probe rg "accel_iterations" (fun () ->
                   cached.Config_manager.accel_iterations);
               Stats.int_probe rg "accel_cycles" (fun () ->
                   cached.Config_manager.accel_cycles);
               Stats.int_probe rg "translation_cycles" (fun () ->
                   cached.Config_manager.translation_cycles);
               Stats.int_probe rg "faults_detected" (fun () ->
                   cached.Config_manager.faults_detected);
               Stats.int_probe rg "fault_remaps" (fun () ->
                   cached.Config_manager.fault_remaps)
             with Invalid_argument _ -> ());
            emit
              (Trace.span ~cat:"mesa" ~ts:(wall_now ()) ~dur:tcycles
                 ~args:[ ("region_size", Json.Int (Region.size region)) ]
                 ("translate " ^ rname region.Region.entry));
            Config_manager.add cache cached;
            pending := Some (cached, cpu_cycles_now () + tcycles);
            Log.debug (fun m ->
                m "accepted %a, translation %d cycles" Region.pp region tcycles)
          | Error reason ->
            Loop_detector.blacklist detector region.Region.entry;
            Stats.incr regions_rejected;
            emit
              (Trace.instant ~cat:"detector" ~ts:(wall_now ())
                 ~args:[ ("reason", Json.String reason) ]
                 ("reject " ^ rname region.Region.entry));
            Log.debug (fun m -> m "mapping failed for %a: %s" Region.pp region reason);
            rejected :=
              rejected_report ~entry:region.Region.entry ~size:(Region.size region)
                ~pragma:region.Region.pragma reason
              :: !rejected)
        | Some (Loop_detector.Rejected { entry; reason }) ->
          Stats.incr regions_rejected;
          emit
            (Trace.instant ~cat:"detector" ~ts:(wall_now ())
               ~args:[ ("reason", Json.String reason) ]
               ("reject " ^ rname entry));
          Log.debug (fun m -> m "rejected region 0x%x: %s" entry reason);
          rejected := rejected_report ~entry ~size:0 ~pragma:None reason :: !rejected
        | None -> ())
    end
  done;
  let cpu_summary = Ooo_model.summary cpu_model in
  let accepted_reports =
    List.map
      (fun (c : Config_manager.cached) ->
        (* Critical path over measured weights when the profiler ran (its
           side models absorb every clean window); the optimizer's model —
           measured under iterative mode, static otherwise — when not. *)
        let cp_model =
          match
            Hashtbl.find_opt profile_models c.Config_manager.region.Region.entry
          with
          | Some pm -> pm
          | None -> c.Config_manager.model
        in
        {
          entry = c.Config_manager.region.Region.entry;
          size = Region.size c.Config_manager.region;
          pragma = c.Config_manager.region.Region.pragma;
          accepted = true;
          reject_reason = c.Config_manager.abort_reason;
          tiling = c.Config_manager.config.Accel_config.tiling;
          pipelined = c.Config_manager.config.Accel_config.pipelined;
          translation_cycles = c.Config_manager.translation_cycles;
          accel_iterations = c.Config_manager.accel_iterations;
          accel_cycles = c.Config_manager.accel_cycles;
          reconfigurations = c.Config_manager.reconfigurations;
          offload_count = c.Config_manager.offloads;
          faults_detected = c.Config_manager.faults_detected;
          fault_retries = c.Config_manager.fault_retries;
          fault_remaps = c.Config_manager.fault_remaps;
          quarantines = c.Config_manager.quarantines;
          critical_path = Perf_model.critical_path cp_model;
          critical_path_latency = Perf_model.iteration_latency cp_model;
          measured =
            Hashtbl.find_opt measured_snaps
              c.Config_manager.region.Region.entry;
        })
      (Config_manager.entries cache)
  in
  {
    total_cycles = cpu_summary.Ooo_model.cycles + Stats.get accel_cycles + Stats.get overhead;
    cpu_cycles = cpu_summary.Ooo_model.cycles;
    accel_cycles = Stats.get accel_cycles;
    overhead_cycles = Stats.get overhead;
    mesa_busy_cycles = Stats.get mesa_busy;
    offloads = Stats.get offloads;
    halt = Option.get !halt;
    cpu_summary;
    activity;
    regions = accepted_reports @ List.rev !rejected;
    hier;
    stats = Stats.snapshot reg;
    timeline = List.rev !timeline;
    attribution = att;
  }

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
