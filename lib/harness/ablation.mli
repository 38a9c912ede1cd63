(** Ablation study over MESA's design choices (the knobs DESIGN.md calls
    out): each variant strips exactly one mechanism from the full
    configuration and re-runs the suite, so the table attributes the
    speedup to its sources.

    Variants:
    - [full]           everything on (the Figure 11 configuration)
    - [no_tiling]      spatial tiling disabled (Figure 6 off)
    - [no_pipelining]  iterations execute back-to-back
    - [no_mem_opts]    store-load forwarding / vectorization / prefetch off
    - [no_iterative]   runtime reconfiguration off
    - [nothing]        bare Algorithm 1 placement only *)

type variant = Full | No_tiling | No_pipelining | No_mem_opts | No_iterative | Nothing

val all_variants : variant list
(** Exposed for tests; {!experiment} runs every variant. *)

val run_variant : variant -> Kernel.t -> Runner.measurement
(** One kernel under one variant on M-128 (functional outputs are still
    verified).
    Exposed for tests, which check one variant on one kernel. *)

val experiment : ?jobs:int -> ?kernels:Kernel.t list -> unit -> Experiments.outcome
(** The full ablation table on M-128: per kernel, each variant's speedup
    over the 16-core baseline. [jobs] fans the per-(kernel, variant) runs
    out on a domain {!Pool} (the outcome is bit-identical for every value);
    a geomean row summarizes how much each mechanism is worth. [kernels]
    defaults to four representative kernels (one FP-streaming, one
    predicated, one vectorizable, one memory-bound); it is exposed for
    tests. *)
