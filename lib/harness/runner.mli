(** Unified kernel execution across every substrate the evaluation
    compares, each returning the same measurement record (cycles, energy,
    output validation). *)

type measurement = {
  label : string;
  cycles : int;
  energy_nj : float;
  checked : (unit, string) result;  (** output validated against the OCaml
                                        reference *)
  stats : Stats.snapshot;           (** end-of-run counter readout — full
                                        controller tree for MESA runs, the
                                        CPU summary group for baselines *)
}

val speedup : baseline:measurement -> measurement -> float
val efficiency : baseline:measurement -> measurement -> float

val comparison_table : Kernel.t -> measurement list -> Tables.t
(** One row per measurement (cycles, speedup over the first, energy,
    output check) — the table `mesa_cli run` prints. *)

val single_core : Kernel.t -> measurement
(** One OoO core (the Figure 14 baseline). *)

val multicore : Kernel.t -> measurement
(** The 16-core baseline (Figure 11). *)

val mesa : ?options:Controller.options -> Kernel.t -> measurement * Controller.report
(** Full MESA run (CPU + transparent offload) under [options] (default
    {!Controller.default_options}), labelled with the grid's name. The
    energy is the CPU's, plus the accelerator's, plus MESA's own. With
    [options.inject] the output check still validates bit-exact results
    after recovery; with [options.profile] the report carries the
    attribution collector (timing stays bit-identical — see
    {!Profile.of_report}). The report owns a fresh cache hierarchy and
    needs no release: callers that only want the measurement take [fst]. *)

val dfg_of_kernel : Kernel.t -> Dfg.t
(** The kernel's hot-loop LDFG, for the analytic baselines (OpenCGRA /
    DynaSpAM) and inspection. Raises [Failure] on kernels whose loop cannot
    be translated.

    Memoized on (kernel name, iteration count): translation is pure, the
    returned graph is immutable and shared, and the memo table is
    mutex-protected so pool workers can race on it safely. Failures are not
    cached. *)

val placement_of :
  ?kind:Interconnect.kind ->
  grid:Grid.t ->
  Kernel.t ->
  (Placement.t, string) result
(** The kernel's Algorithm-1 placement on [grid] (default backend
    [Mesh_noc]), computed from a fresh performance model — the
    translation the engine-level experiments (fig12, table2) repeat per
    figure. Memoized like {!dfg_of_kernel}, keyed additionally by the grid
    geometry and interconnect kind; mapping errors are cached too (they are
    equally deterministic). *)

val optimized_config :
  grid:Grid.t -> Kernel.t -> Dfg.t -> Placement.t -> Accel_config.t
(** {!Controller.optimized_config} under the pragma of the kernel's hot
    loop — the configuration the engine-level experiments, refine and DSE
    execute. *)

val execute_loop :
  ?attribution:Attribution.t ->
  ?hier:Hierarchy.config ->
  Kernel.t ->
  Dfg.t ->
  Accel_config.t ->
  (Engine.result * (unit, string) result, string) result
(** Execute the kernel's hot loop under a configuration from freshly
    prepared memory and a fresh cache hierarchy ([hier], default
    {!Hierarchy.default_config}): the engine's result and the kernel's
    output check on the memory it left. *)

val translation_cache_stats : unit -> int * int * int
(** [(hits, misses, evictions)] over both memo tables since start (or the
    last {!clear_translation_cache}). An eviction is a wholesale reset of
    both tables on reaching the capacity bound. *)

val translation_cache_capacity : unit -> int
(** The combined entry bound across both memo tables (default 512). *)

val set_translation_cache_capacity : int -> unit
(** Change the bound. When an insert would reach it, both tables reset and
    the eviction counter increments — a sweep over hundreds of placements
    stays bounded while single-figure workloads never evict. Raises
    [Invalid_argument] on a capacity below 1. Exposed for tests: reaching
    the default bound would take 512 translations. *)

val clear_translation_cache : unit -> unit
(** Drop every memoized LDFG and placement (tests use this to measure cold
    paths). *)

val dynaspam : ?config:Dynaspam.config -> Kernel.t -> measurement
(** DynaSpAM analytic model over the same dynamic iteration count; the
    non-loop remainder is charged at single-core cost. Unqualified kernels
    return the single-core measurement. [config] (default
    {!Dynaspam.default_config}) is exposed for tests. *)
