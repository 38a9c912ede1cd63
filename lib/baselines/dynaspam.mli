(** A DynaSpAM-style baseline (Liu et al., ISCA '15), used in Figure 14.

    DynaSpAM maps hot traces onto a small 1-D feedforward CGRA embedded in
    the core pipeline, driven by the out-of-order scheduler's schedule. Its
    qualitative profile, which this model reproduces:

    - trace window limited to the scheduler's reach (64 ops) — bigger loops
      do not qualify and run on the plain core;
    - gains come from full operand bypass and predication (no fetch/decode,
      no mispredictions), not from loop-level parallelism: throughput is
      bounded by the core's own functional-unit and memory-port mix;
    - configuration is near-instant (ns range) but the fabric cannot tile
      or target a 2-D array. *)

type result = {
  qualified : bool;
  ii : float;           (** steady-state cycles per iteration *)
  cycles : int;         (** loop execution cycles *)
}

type config = {
  window : int;        (** trace capacity (64) *)
  alu_throughput : int;
  fp_throughput : int;
  mem_ports : int;
  div_occupancy : int; (** cycles an iterative unit blocks *)
}

val default_config : config

val run : ?config:config -> Dfg.t -> iterations:int -> result
(** Analytic execution model of the loop on the DynaSpAM fabric under
    [config] (default {!default_config}; exposed for tests). When the
    loop exceeds the window, [qualified] is false and the result carries
    the iteration count untouched ([cycles] = 0) — the caller falls back to
    the CPU baseline. *)
