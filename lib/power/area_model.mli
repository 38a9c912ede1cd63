(** Parametric area/power model reproducing Table 1 (Synopsys DC +
    FreePDK15 synthesis in the paper).

    Constants are calibrated so the 128-PE configuration reproduces the
    paper's numbers exactly; other configurations derive from first-order
    scaling — DFG storage scales with trace capacity, array components with
    PE count, the LSU with entry count. The paper notes the LDFG/SDFG were
    synthesized to register arrays for lack of SRAM cells, which is why
    those two dominate MESA's area. *)

type entry = {
  component : string;
  area_um2 : float;
  power_mw : float;
  indent : int;  (** nesting level for table rendering *)
}

val mesa_extensions : capacity:int -> entry list
(** The MESA controller block: top, arch model (rename table, LDFG,
    instruction convert, instruction mapping with latency optimizer and
    SDFG) and config block. [capacity] is the trace-cache / LDFG entry
    count (512 at the paper's configuration). *)

val cpu_additions : capacity:int -> entry list
(** Per-core monitoring additions: trace cache and control/interface.
    Exposed for tests with {!mesa_extensions}: they calibrate each group
    against Table 1. *)

val accelerator : grid:Grid.t -> entry list
(** The spatial accelerator: PE array (with 2x2 FP slices), load-store
    unit, NoC. *)

val full_table : capacity:int -> grid:Grid.t -> entry list

val total_area_mm2 : entry list -> float
(** Sum of top-level entries (indent 0) in mm^2. *)

val total_power_w : entry list -> float

val mesa_area_fraction_of_core : capacity:int -> float
(** MESA top area over a single BOOM-class core area (the paper's "<10% of
    a core" claim). *)
