(** The accelerator execution engine: runs a configured DFG to completion,
    producing both the architectural side effects (values written to memory
    and registers — bit-identical to the CPU reference) and the cycle-level
    timing and counter readouts MESA's optimizer feeds on.

    Execution follows the hardware's dataflow semantics (§5.2):

    - each iteration, every node fires when its inputs have arrived
      (Equation 2 with placement-derived transfer latencies);
    - forward branches predicate: a node whose guard fired the skip
      direction is disabled and forwards its hidden (old destination) value;
    - memory nodes occupy load-store entries and compete for the array's
      cache ports; per-access latency comes from the shared hierarchy;
    - NoC transfers injected at the same router slice in the same cycle
      serialize (the contention the iterative optimizer later measures);
    - with [pipelined] set, iteration [k+1] initiates II cycles after
      iteration [k], II bounded by loop-carried dependencies, PE reuse and
      memory-port throughput;
    - with [tiling] = T, T instances of the SDFG execute concurrently on
      disjoint iterations (Figure 6), sharing the memory ports.

    The loop runs until its backward branch falls through, like the
    hardware: MESA only regains control at loop exit. *)

type detection = {
  d_kinds : Fault.kind list;  (** corruption kinds applied this window *)
  d_latency : int;
      (** cycles between the first applied corruption and the end of the
          window — the modeled end-of-window checksum's detection latency *)
  d_watchdog : bool;
      (** the forward-progress watchdog (not the checksum) cut the window
          off: the corrupted loop was spinning *)
}

type result = {
  cycles : int;                       (** makespan of the accelerated loop *)
  iterations : int;
  completed : bool;                   (** false when [stop_after] paused the
                                          loop before its exit condition *)
  budget_exhausted : bool;            (** [max_iterations] hit: the safety
                                          budget, not a profiling pause *)
  fault : detection option;
      (** corruption was applied and detected this window; the architectural
          writeback is suspect and the caller must restore its checkpoint *)
  exit_pc : int;
  activity : Activity.t;
  measured : Stats.snapshot;
      (** this window's hardware-counter readouts:
          - ["node.<i>.latency"] — per-PE firing histogram (count = fires,
            mean = measured op latency, AMAT included for memory nodes);
          - ["node.<i>.amat"] — cache access time per memory node;
          - ["edge.<i>.<j>"] — measured transfer latency per dependence
            edge, NoC queueing included;
          - ["contention.noc_queue_delay" / "contention.port_queue_delay"]
            — router-slice and memory-port queueing;
          - ["ii.achieved"] — per-iteration initiation interval.
          The optimizer absorbs these into the region's {!Perf_model}. *)
}

val execute :
  ?max_iterations:int ->
  ?stop_after:int ->
  ?fault:Fault.t ->
  ?watchdog_window:int ->
  ?attribution:Attribution.t ->
  config:Accel_config.t ->
  dfg:Dfg.t ->
  machine:Machine.t ->
  hier:Hierarchy.t ->
  unit ->
  (result, string) Stdlib.result
(** Run the loop whose live-ins are taken from [machine]'s current register
    state.

    This is the event-driven core: compiled static schedule driven one
    iteration at a time through {!Timing.step}, batched time jumps. It is bit-identical in
    every observable (cycles, memory, registers, stats snapshots,
    attribution sums) to the frozen node-scan oracle [Engine_reference],
    which lives in the test tree for differential testing. Every successful
    execution also adds its window's cycle count to {!Sim_meter}. On success
    the machine holds the post-loop architectural state (registers, PC at
    the loop's exit address) and [machine.mem] holds every
    store's effect. Fails (leaving partial memory effects) if the placement
    is invalid for the DFG. Exceeding [max_iterations] (default 4 million)
    pauses like [stop_after] but flags [budget_exhausted] so the caller can
    abort the offload rather than resume forever.

    [stop_after] pauses execution after that many iterations if the loop has
    not exited: live-outs are written back, the PC is left at the loop entry,
    and the result carries [completed = false] — so the controller can
    inspect the counters, possibly reconfigure, and re-invoke [execute] to
    resume (or hand the loop back to the CPU). This models MESA's profiling
    windows for iterative optimization.

    [attribution] attaches a cycle-attribution collector (the `mesa profile`
    backend): every node firing, II decision and window-end contention
    readout is charged into its per-lane stall taxonomy. Attribution is pure
    observation — a profiled run's timing, memory and register effects are
    bit-identical to an unprofiled one. Callers bracket each execution with
    {!Attribution.begin_window} (the engine closes the window itself via
    [Attribution.end_window]) and discard faulted windows with
    {!Attribution.abort_window}.

    [fault] attaches a fault injector: due events fire as the loop iterates,
    corrupting node output latches (transient flips, permanent stuck-ats)
    and degrading cache ports. A corrupted window is reported through
    [result.fault]; a corrupted window that stops making forward progress is
    cut off by a watchdog after [watchdog_window] (default 512) further
    iterations. Corrupted values reaching stores do corrupt [machine.mem] —
    the caller checkpoints before the window and restores on detection. Wild
    corrupted addresses may escape as [Invalid_argument]; callers injecting
    faults should treat any exception with [Fault.window_corrupted] set as a
    detected fault. *)
