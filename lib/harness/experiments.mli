(** Reproduction of every table and figure in the paper's evaluation
    (§6). Each experiment returns a rendered {!Tables.t} whose rows are the
    series the corresponding figure plots, with the paper's headline
    numbers quoted alongside for comparison, plus a machine-readable
    summary used by EXPERIMENTS.md and the tests. *)

type outcome = {
  table : Tables.t;
  summary : (string * float) list;  (** named headline metrics *)
}

(** Every experiment takes [?jobs]: its independent per-(kernel,
    configuration) measurements run on a {!Pool} of that many domains
    (default [1], i.e. fully sequential). Results are assembled in
    submission order and each measurement is deterministic, so the outcome
    — table text and summary — is bit-identical for every [jobs] value.
    [?kernels] (fig11, fig12, fig14) and [?n] (fig15, fig16) shrink an
    experiment's input; they are exposed for tests. *)

val fig11 : ?jobs:int -> ?kernels:Kernel.t list -> unit -> outcome
(** Speedup and energy efficiency of M-128/M-512 over the 16-core CPU
    across the Rodinia suite. Paper averages: 1.33x / 1.81x performance,
    1.86x / 1.92x energy efficiency. *)

val fig12 : ?jobs:int -> ?kernels:Kernel.t list -> unit -> outcome
(** Per-iteration IPC against the OpenCGRA modulo scheduler: MESA without
    optimizations slightly behind, with optimizations clearly ahead. *)

val fig13 : ?jobs:int -> unit -> outcome
(** Area / power / energy breakdown by component (nn, kmeans, hotspot,
    cfd): memory + compute should carry ~87% of energy. *)

val fig14 : ?jobs:int -> ?kernels:Kernel.t list -> unit -> outcome
(** M-64 against a single OoO core and DynaSpAM. Paper: DynaSpAM 1.42x,
    M-64 1.86x, 2.01x with iterative reconfiguration. *)

val fig15 : ?jobs:int -> ?n:int -> unit -> outcome
(** PE scaling of the nn kernel, default vs ideal-memory vs ideal:
    near-linear to ~128 PEs, then memory-bound. *)

val fig16 : ?jobs:int -> ?n:int -> unit -> outcome
(** Energy per iteration versus iterations executed: configuration energy
    amortizes around 70 iterations. *)

val table1 : ?jobs:int -> unit -> outcome
(** Hardware area/power breakdown at 128 PEs (identical to the paper by
    calibration; other configs derive from the scaling model). *)

val table2 : ?jobs:int -> unit -> outcome
(** Configuration-latency comparison across approaches; MESA's measured
    translation latency must fall in the 10^3-10^4 cycle band. *)
