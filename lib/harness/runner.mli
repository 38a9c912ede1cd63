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

    Translated afresh on every call: translation is pure, so two calls
    return structurally equal graphs, and a caller that needs the graph
    more than once keeps the one it got. *)

val placement_of :
  ?kind:Interconnect.kind ->
  grid:Grid.t ->
  Kernel.t ->
  (Placement.t, string) result
(** The kernel's Algorithm-1 placement on [grid] (default backend
    [Mesh_noc]), computed from a fresh {!dfg_of_kernel} and performance
    model on every call — pure like {!dfg_of_kernel}, so equal arguments
    give equal placements (or equal mapping errors). *)

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
(** Always [(0, 0, 0)]: nothing is cached. Kept only because perfbench
    still reads it (as its [memo.hits]/[memo.misses]); delete it with the
    next benchmark revision. *)

val clear_translation_cache : unit -> unit
(** Does nothing: nothing is cached. Kept only because perfbench still
    calls it; delete it with the next benchmark revision. *)

val dynaspam : ?config:Dynaspam.config -> Kernel.t -> measurement
(** DynaSpAM analytic model over the same dynamic iteration count; the
    non-loop remainder is charged at single-core cost. Unqualified kernels
    return the single-core measurement. [config] (default
    {!Dynaspam.default_config}) is exposed for tests. *)
