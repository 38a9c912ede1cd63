(** Analytical cycle estimator over a placed DFG — the model side of
    model-guided mapping and search.

    The estimator runs the engine's timing equations — the {!Timing}
    plane the engine itself is built on — without executing anything:
    Equation-2 arrival folds over the placement's transfer
    latencies, capacity-1 router-slice occupancy for NoC injections,
    cache-port occupancy for memory issues, and the pipelined initiation
    interval bounded by loop-carried recurrences, memory-port throughput and
    iterative functional units. Iterations are timing-simulated until every
    tiled instance reaches a cycle-exact fixed point, then the remaining
    trip count is extrapolated at the steady II (falling back to simulating
    every iteration when no fixed point appears).

    The model is a pure function of its arguments: same inputs, same
    estimate — it touches no {!Stats} registry, no {!Sim_meter}, and no
    engine state. It deliberately assumes the value-independent fragment of
    the engine's semantics: every guard enabled, no dynamic store-to-load
    aliasing, and memory service latency from the [mem_latency] oracle
    instead of a live cache. On loops where those assumptions hold exactly
    (straight-line bodies without memory traffic) the estimate equals the
    event engine's measured cycles bit for bit; elsewhere the divergence is
    bounded and the property suite pins the bound. *)

type t = {
  cycles : int;          (** modeled makespan over [iterations] *)
  iter_latency : float;  (** steady-state latency of one iteration *)
  ii : float;            (** steady-state initiation interval *)
  ii_rec : float;        (** loop-carried recurrence bound on the II *)
  ii_mem : float;        (** memory-port throughput bound *)
  ii_fu : float;         (** iterative div/sqrt unit bound *)
  critical : int list;   (** node chain realizing [iter_latency], in
                             execution order *)
  simulated : int;       (** iterations timing-simulated before the fixed
                             point (= [iterations] when none was found) *)
  steady : bool;         (** a per-instance fixed point was found and the
                             tail extrapolated *)
}

val estimate :
  ?op_latency:(int -> float) ->
  ?mem_latency:(int -> float) ->
  ?iterations:int ->
  ?extrapolate:bool ->
  config:Accel_config.t ->
  dfg:Dfg.t ->
  unit ->
  t
(** Model [iterations] (default 1, clamped to at least 1) loop iterations of
    [dfg] under [config]'s placement and optimization flags.

    [op_latency] prices a non-memory node's firing (default: the static
    {!Latency.accel} table by op class — the same seed the {!Perf_model}
    starts from). [mem_latency] prices a memory node's cache service time,
    excluding the modeled port queueing (default: the L1 hit latency of
    {!Hierarchy.default_config}); feed measured AMATs through
    {!mem_oracle_of_measured} to tighten the estimate after a profiling
    window. Each oracle must be a pure function of the node index: the
    estimate reads it once per node it prices, before simulating, and
    prices every firing of that node from the reading. [extrapolate:false] forces every iteration to be simulated —
    the fixed-point fast path must be observationally identical, and the
    property suite checks it; it is exposed for tests. *)

val predicted_activity :
  config:Accel_config.t -> dfg:Dfg.t -> iterations:int -> cycles:int ->
  Activity.t
(** The activity counters the modeled run would accumulate (every guard
    assumed enabled): per-class op counts, local/NoC transfer counts and the
    given [iterations]/[cycles] — enough for {!Energy_model.accel_energy} to
    price a candidate point without executing it. *)

val op_oracle_of_measured : Stats.snapshot -> (int -> float)
(** An [op_latency] oracle reading ["node.<i>.latency"] means out of an
    engine window's measured snapshot, resolved in one pass when the
    oracle is built. A node with no samples costs 1
    cycle, not its static-table latency. An engine window samples every
    node on every firing, guarded-off ones included, so that fallback is
    reached only when the snapshot comes from another loop (or holds no
    iteration). Memory nodes never consult this oracle: {!estimate} prices
    them through [mem_latency]. *)

val mem_oracle_of_measured : Stats.snapshot -> (int -> float)
(** A [mem_latency] oracle reading ["node.<i>.amat"] means (resolved in one
    pass when the oracle is built, like {!op_oracle_of_measured}) with the window's
    mean port-queue delay deducted (the model re-applies its own queueing),
    clamped to at least one cycle; unmeasured nodes fall back to the default
    L1-hit service time. *)
