(** Model-guided placement refinement over real kernels: the harness wiring
    for {!Mapper.refine}.

    The cost model ({!Cost_model}) predicts, the event engine confirms —
    each candidate the model likes is re-executed end to end (fresh memory,
    machine and hierarchy, outputs validated against the kernel's OCaml
    reference), so an accepted refinement is a real, semantics-preserving
    cycle win and the pass can never regress a kernel. *)

type report = {
  kernel : string;
  baseline_cycles : int;     (** engine cycles of the Algorithm-1 placement *)
  refined_cycles : int;      (** engine cycles of the refined placement *)
  model_baseline : int;      (** cost-model estimate of the baseline *)
  model_refined : int;       (** cost-model estimate of the result *)
  rounds : int;
  proposed : int;            (** legal candidates ranked by the model *)
  estimated : int;           (** cost-model estimates run: one per distinct
                                 {!Timing.schedule_key} among the baseline
                                 and the candidates *)
  confirmed : int;           (** engine confirmations run *)
  accepted : int;            (** moves/swaps adopted *)
  iterations : int;          (** hot-loop trip count used throughout *)
  placement : Placement.t;   (** the refined placement *)
  baseline : Placement.t;    (** the Algorithm-1 placement it started from *)
  config : Accel_config.t;   (** refined placement with the kernel's
                                 optimization flags — ready to execute *)
  dfg : Dfg.t;
}

val run :
  ?seed:int ->
  ?max_rounds:int ->
  ?beam:int ->
  ?jobs:int ->
  ?grid:Grid.t ->
  ?baseline:Placement.t ->
  ?measured:Stats.snapshot ->
  Kernel.t ->
  (report, string) result
(** Refine [kernel]'s placement on [grid] (default {!Grid.m64}), starting
    from [baseline] (default: the memoized Algorithm-1 placement).
    Deterministic for fixed arguments: the model is pure, the engine is
    deterministic, and ranking ties break on [seed] (default 0). [jobs]
    (default 1) domains score each round's candidates; the report is the
    same for every [jobs]. [measured] — a profiled engine window's per-node
    snapshot — feeds the cost model's latency oracles
    ({!Cost_model.op_oracle_of_measured} /
    {!Cost_model.mem_oracle_of_measured}), so the model ranks candidates
    with the latencies this kernel actually exhibited; the engine still
    confirms every adoption, so never-regress holds unchanged. This is the
    backend of mesad's profiling-window feedback loop. [Error] when the
    kernel cannot be mapped at all or its baseline execution fails. *)

val config_for : report -> Placement.t -> Accel_config.t
(** The kernel's optimization flags around an arbitrary placement — what
    [run] itself executes, exposed so differential tests can re-run the
    refined placement through both engines. *)

val profile : report -> Placement.t -> (Profile.t, string) result
(** Execute [placement] under the report's configuration with an
    attribution collector attached and summarize it — the
    `refine --profile-out` backend and the CI `profile-diff` gate's input.
    The profile's critical path is the cost model's chain for that
    placement. *)

val experiment : ?jobs:int -> unit -> Experiments.outcome
(** The bench-harness entry: refine five reference kernels on M-64 and
    tabulate baseline vs refined cycles with the search counters. The
    kernels run one after another; [jobs] (default 1) domains score each
    refinement round's candidates. *)

val render : report -> string
(** Two lines: engine cycles before and after with the gain, then the
    model estimates and search counters. *)

val report_to_json : report -> Json.t
(** Stable summary (no placement dump): kernel, cycle counts, model
    estimates, and search counters. *)
