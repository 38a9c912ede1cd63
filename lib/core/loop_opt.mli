(** Iteration-level optimizations (§4.3): spatial tiling and pipelining.

    Tiling duplicates the SDFG so independent iterations execute
    concurrently (Figure 6). It is only legal for loops the program
    explicitly annotated parallel ([omp parallel] / [omp simd]) — MESA never
    speculates at the thread level. The tiling factor is bounded by the
    fabric: enough PEs and load-store entries must exist for every
    instance.

    Pipelining overlaps successive iterations of one instance at the loop's
    initiation interval and is applied whenever optimizations are on (the
    engine's II computation already respects loop-carried recurrences). *)

val tiling : grid:Grid.t -> dfg:Dfg.t -> pragma:Program.pragma option -> int
(** Largest legal tiling for the annotated loop on this grid (1 when the
    loop carries no annotation). The capacity bound is
    [min(PEs / compute nodes, LS entries / memory nodes)], at least 1. *)
