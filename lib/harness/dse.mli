(** Deterministic, resumable design-space exploration over the joint
    microarchitecture space.

    A {!spec} names the axes of the sweep — kernel subset, grid geometries,
    cache-port counts, interconnect backends, L1/L2 capacities — and the
    explorer measures every combination, or with the [Guided] strategy a
    cost-model-ranked subset that reaches the same Pareto frontier. Point
    enumeration is a pure function of the spec and every measurement is
    deterministic, so two runs of the same spec are bit-identical —
    including a run that was killed and resumed from its checkpoint, at any
    [jobs] value: points fan out across a {!Pool} but results are assembled
    in submission order, and the checkpoint always holds a prefix of that
    order.

    Each point runs the kernel's hot loop on the engine (translation shared
    through {!Runner}'s memo: the LDFG once per kernel, the placement once
    per (kernel, grid, interconnect)) and records cycles, the offload/reject
    outcome, energy from {!Energy_model} and area from {!Area_model}. The
    result carries a 2D Pareto {!frontier} over (performance,
    performance-per-watt), a ranked table, a [dse] stats group
    (points_evaluated / cache_hits / points_rejected / frontier_size) and
    Chrome-trace timeline spans. *)

(** One configuration of the joint space. *)
type point = {
  kernel : string;
  rows : int;
  cols : int;
  mem_ports : int;
  kind : Interconnect.kind;
  l1_kb : int;
  l2_kb : int;
}

val point_label : point -> string
(** ["nn@16x8 p4 mesh_noc L1:64K L2:8192K"] — stable display/trace name. *)

(** The measurement at one point. Rejected points ([mapped = false]) keep
    the mapping or engine error in [reject] and zero metrics; they never
    enter the frontier. *)
type outcome = {
  point : point;
  mapped : bool;
  reject : string option;
  cycles : int;
  iterations : int;
  energy_nj : float;        (** accelerator energy over the loop *)
  power_w : float;          (** average power at the nominal 2 GHz clock *)
  area_mm2 : float;         (** accelerator area at this geometry *)
  perf : float;             (** iterations per kilocycle (higher is better) *)
  perf_per_watt : float;    (** [perf / power_w] *)
}

(** The sweep specification. Every axis list is deduplicated in user order;
    the exhaustive point list is the cartesian product, kernels outermost,
    L2 innermost. *)
type spec = {
  kernels : string list;
  grids : (int * int) list;     (** (rows, cols) *)
  ports : int list;
  kinds : Interconnect.kind list;
  l1_kb : int list;
  l2_kb : int list;
}

val default_spec : spec
(** nn/kmeans/bfs over 4x4..16x8 grids, 2/4/8 ports, the mesh+NoC backend,
    64 KB L1, 8 MB L2. *)

val validate_spec : spec -> (unit, string) result
(** Kernels exist, axes non-empty, geometries/ports/capacities positive
    (capacities must keep the cache geometry valid: power-of-two KB).
    Exposed for tests, like every stage {!run} composes. *)

val points_of_spec : spec -> point list
(** The exhaustive enumeration (pure). Exposed for tests. *)

val evaluate : point -> outcome
(** Measure one point (deterministic; safe to call from pool workers).
    Exposed for tests. *)

val kinds : (string * Interconnect.kind) list
(** The interconnect backends by name: [mesh_noc], [hier_rows],
    [pure_mesh]. *)

val kind_to_string : Interconnect.kind -> string
val kind_of_string : string -> (Interconnect.kind, string) result

(** {2 Search strategies} *)

(** How the lattice is explored. [Exhaustive] measures every point. [Guided] measures one calibration seed
    per kernel, prices every remaining point with the analytical
    {!Cost_model} surrogate, and runs surrogate-ranked successive halving
    with τ-dominance pruning — stopping once every unmeasured candidate is
    dominated by a measurement beyond the model's worst observed relative
    error (floored at 10%), or at the hard cap of half the lattice. *)
type strategy = Exhaustive | Guided

(** Injectable search defects for mutation tests. [Inverted_rank] makes the
    surrogate ranking worst-first: a healthy τ-stop and cap must then
    demonstrably miss Pareto-frontier points, proving the ranking (not the
    cap alone) is what finds the frontier cheaply. *)
type defect = Inverted_rank

val strategies : (string * strategy) list
val defects : (string * defect) list
(** The strategies and defects by name, as `mesa_cli dse` spells them. *)

(** {2 Pareto frontier} *)

val dominates : outcome -> outcome -> bool
(** [dominates a b]: [a] is no worse on both (perf, perf-per-watt) axes and
    strictly better on at least one. Exposed for tests. *)

val frontier : outcome list -> outcome list
(** The non-dominated mapped outcomes, in input order. Exposed for tests. *)

(** {2 Checkpoints} *)

val checkpoint_to_json : strategy:strategy -> spec -> outcome list -> Json.t
(** The ["strategy"] field is emitted only for [Guided] (absent means
    exhaustive), so checkpoints written before guided search existed — and
    exhaustive ones written today — keep their exact byte format. *)

val checkpoint_of_json : Json.t -> (spec * strategy * outcome list, string) result
(** Inverse of {!checkpoint_to_json}: floats round-trip exactly (17
    significant digits), so a frontier computed over restored outcomes is
    bit-identical to one over freshly measured outcomes. *)

(** {2 Running a sweep} *)

type result = {
  spec : spec;
  strategy : strategy;
  outcomes : outcome list;  (** assembly order: enumeration order for
                                exhaustive sweeps, evaluation order for
                                guided ones *)
  front : outcome list;
  complete : bool;          (** false when [stop_after] cut the run short *)
  evaluated : int;          (** points measured fresh by this run *)
  measured : int;           (** mapped outcomes over the whole run, fresh or
                                restored — the numerator of the guided
                                evaluated-fraction gate *)
  exhaustive_count : int;   (** full lattice size, the denominator *)
  restored : int;           (** points restored from the checkpoint *)
  stats : Stats.snapshot;   (** the [dse] counter group *)
  timeline : Trace.span list;  (** one span per point on a virtual
                                   cumulative-cycles axis *)
}

val run :
  ?jobs:int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?stop_after:int ->
  ?strategy:strategy ->
  ?defect:defect ->
  spec ->
  (result, string) Stdlib.result
(** Execute the sweep. [checkpoint] names a JSON file rewritten (atomically,
    via a temp file + rename) after every completed point; [resume] loads it
    first — completed points are restored instead of re-measured (counted as
    [dse.cache_hits]) and the sweep continues where it left off. A missing
    checkpoint file under [resume] is a fresh start; a checkpoint for a
    different spec or strategy is an error. [stop_after n] returns after [n]
    fresh measurements (the test suite's deterministic stand-in for a kill).
    [jobs] sizes the worker pool; the result is bit-identical for any value.
    [strategy] defaults to [Exhaustive]; [Guided] measures at most half
    the lattice.
    [defect] injects a search defect for mutation tests. *)

val result_to_json : result -> Json.t
(** Spec, strategy, measured/exhaustive point counts, outcomes and frontier
    — everything that must be bit-identical between an
    interrupted-then-resumed sweep and an uninterrupted one (so not
    [evaluated]/[restored], which legitimately differ). *)

val render : ?top:int -> result -> string
(** The ranked table (mapped before rejected, then perf, then perf/W;
    frontier points starred; [top] keeps the first rows), then the point
    counts, the measured share of the lattice and one line per frontier
    point — what `mesa_cli dse` prints. *)

val frontier_labels : result -> string list
(** The frontier's point labels, sorted: plain-diffable between runs. *)

val check_max_frac : float -> result -> (unit, string) Stdlib.result
(** The guided-search efficiency gate: [Error] when more than fraction [x]
    of the exhaustive lattice was engine-measured. *)

val experiment : ?jobs:int -> unit -> Experiments.outcome
(** The bench-harness entry: a small fixed sweep (nn and kmeans across four
    geometries, two port counts), summarized by frontier size and the best
    point on each axis. *)

val guided_experiment : ?jobs:int -> unit -> Experiments.outcome
(** Guided vs exhaustive on the same pinned sub-space: the guided run's
    ranked table, summarized by measured-point counts on both strategies,
    the guided evaluated fraction and whether the frontiers match
    point-for-point (1.0 = yes). *)
