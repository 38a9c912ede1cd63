(** The MESA controller (Figures 1, 7): transparent acceleration of a
    program running on one CPU core.

    The controller steps the program on the CPU ({!Cpu_run.step}: the
    interpreter's semantics charged to the OoO timing model, which accounts
    CPU cycles) and shows the loop detector every taken backward branch. When a region passes C1-C3, MESA translates it
    (LDFG, mapping, configuration) *while the CPU keeps executing* — the
    translation latency only delays the offload point, it does not stall
    the core. At the first iteration boundary after the configuration is
    ready, control transfers to the fabric; the engine runs the loop to
    completion (optionally in profiling windows with iterative
    reconfiguration) and hands back the architectural state, and the CPU
    resumes at the loop exit.

    Wall-clock accounting:
    [total = cpu_cycles + accel_cycles + offload transfers + reconfiguration
    stalls]. Translation overlaps the CPU and is tracked separately as
    [mesa_busy_cycles] for the energy model.

    The budgets are fixed, as in the hardware: an offload transfers state
    in 80 cycles each way and re-optimises at most 3 times, a faulted
    window is retried at most 3 times in a row before the region is
    quarantined, and the C1 capacity (the trace-cache size) is the grid's
    PEs plus load-store entries, at most 512 instructions. *)

type options = {
  grid : Grid.t;
  kind : Interconnect.kind;
  optimize : bool;         (** memory + loop-level optimizations (tiling,
                               pipelining, forwarding, ...) *)
  iterative : bool;        (** runtime reoptimization from counters *)
  profile_chunk : int;     (** iterations per profiling window (64);
                               exposed for tests *)
  max_steps : int;         (** interpreter safety budget; exposed for tests *)
  engine_max_iterations : int;
      (** engine safety budget per offload; exceeding it aborts acceleration
          of the region with a distinct reason and CPU fallback. Exposed for
          tests *)
  watchdog_window : int;   (** iterations a corrupted window may spin before
                               the forward-progress watchdog cuts it off *)
  inject : Fault.spec option;
      (** fault schedule to arm for this run; [None] (the default) keeps
          every fault path cold and timing bit-identical to a build without
          the subsystem *)
  profile : bool;
      (** arm the cycle-attribution collector ({!Attribution.t}): every
          fabric cycle is charged to a stall-taxonomy bucket and the report
          carries the collector. Pure observation — cycles, memory and
          registers stay bit-identical to an unprofiled run *)
  tune : Accel_config.t -> Accel_config.t;
      (** hook applied to every freshly translated configuration — the
          ablation studies use it to strip individual optimizations *)
}

val default_options :
  ?grid:Grid.t -> ?optimize:bool -> ?iterative:bool -> ?inject:Fault.spec ->
  ?profile:bool -> unit -> options
(** M-128, mesh+NoC interconnect, optimizations and iterative mode on;
    profiling off. *)

val optimized_config :
  grid:Grid.t -> dfg:Dfg.t -> pragma:Program.pragma option -> Placement.t ->
  Accel_config.t
(** The optimization bundle (§4.2-4.3): [placement] with {!Mem_opt}'s
    forwarding, vector groups and prefetches and {!Loop_opt}'s tiling
    (honouring [pragma]) and pipelining. What the controller configures when
    [optimize] is set, and what the engine-level experiments execute. *)

(** Per-region outcome, for the evaluation tables. *)
type region_report = {
  entry : int;
  size : int;
  pragma : Program.pragma option;
  accepted : bool;
  reject_reason : string option;
      (** why the region was rejected — or, for an accepted region, why
          acceleration was later abandoned (iteration budget, quarantine) *)
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
      (** node indices of the longest weighted dependence chain through the
          region's SDFG — measured weights when profiling or iterative mode
          supplied counter readouts, static estimates otherwise; [[]] for
          rejected regions *)
  critical_path_latency : float;
      (** modeled latency of one iteration along that path (Eq. 2) *)
  measured : Stats.snapshot option;
      (** the last clean engine window's measured per-node/per-edge
          snapshot (["node.<i>.latency"], ["node.<i>.amat"], ...) when
          [options.profile] was set — the input
          {!Cost_model.op_oracle_of_measured} and
          {!Cost_model.mem_oracle_of_measured} consume; [None] when
          profiling was off or no clean window completed *)
}

type report = {
  total_cycles : int;
  cpu_cycles : int;
  accel_cycles : int;
  overhead_cycles : int;   (** offload transfers + reconfiguration stalls *)
  mesa_busy_cycles : int;  (** translation work (overlapped; energy only) *)
  offloads : int;
  halt : Interp.halt;
  cpu_summary : Ooo_model.summary;
  activity : Activity.t;   (** accumulated fabric activity *)
  regions : region_report list;
  hier : Hierarchy.t;      (** the run's memory hierarchy, for energy *)
  stats : Stats.snapshot;
      (** end-of-run readout of every counter group: [cpu] (OoO model),
          [cache] (per-level hits/misses), [engine] (fabric activity,
          profiling windows), [controller] (offloads, reconfigurations,
          translation, cycle accounting), [faults] (injection and recovery —
          all-zero when no schedule is armed) and [regions.r<entry>] per accepted
          region *)
  timeline : Trace.span list;
      (** offload / translate / reconfigure / reject events on the
          wall-clock axis, ready for {!Trace.to_chrome_json} *)
  attribution : Attribution.t option;
      (** the cycle-attribution collector when [options.profile] was set:
          for every lane, bucket sums close exactly against
          [accel_cycles + overhead_cycles] *)
}

val run :
  ?options:options -> ?hier:Hierarchy.config -> Program.t -> Machine.t -> report
(** Execute the program to completion under MESA. The machine ends in the
    same architectural state the plain interpreter would produce — the
    equivalence the test suite verifies. The run builds and owns its cache
    hierarchy ([hier], default {!Hierarchy.default_config}).

    The run is the paper's pipeline as a sequence of stages over one run
    state: at each instruction boundary a pending configuration is offloaded
    once written and the PC is at its entry, or, when the PC is a cached
    region's entry, that region is armed (config-cache hit, or one step of
    its quarantine countdown per arrival); then one {!Cpu_run.step}
    executes the instruction on the OoO model, and a taken backward branch
    goes to the loop detector, whose accepted regions are translated. An offload runs engine
    windows, recovering from faulted ones (retry, remap, quarantine) and
    re-optimising after profiling ones, until the loop completes. *)

val speedup : baseline_cycles:int -> report -> float

val render : ?faults:bool -> report -> string
(** The run summary `mesa_cli run` prints: the cycle breakdown, one line
    per region (accepted regions with their fault recovery, rejected ones
    with the reason) and, with [faults], the fault-injection totals. *)
