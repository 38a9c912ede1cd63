(** The iterative optimization loop (§1, §4.3): measurements in,
    possibly-better configuration out.

    After a profiling window on the fabric, the controller feeds the
    engine's counter readouts into the region's performance model and asks
    the mapper for a fresh placement under the measured weights. The new
    configuration is adopted only when its modeled iteration latency beats
    the current one by at least [improvement_threshold] — so the sequence of
    adopted configurations is monotone in modeled latency (a property the
    test suite checks). *)

val improvement_threshold : float
(** Relative gain required to pay a reconfiguration (5%). Exposed for
    tests. *)

val absorb : Perf_model.t -> Engine.result -> unit
(** Fold the window's counter readouts — per-node operation latency and
    per-edge transfer histograms from [result.measured] — into the model. *)

type outcome =
  | Keep of float         (** modeled latency of the retained configuration *)
  | Adopt of { config : Accel_config.t; latency : float; previous : float }
      (** new configuration with its (strictly better) modeled latency and
          the latency it displaced *)

val step :
  grid:Grid.t ->
  kind:Interconnect.kind ->
  model:Perf_model.t ->
  current:Accel_config.t ->
  outcome
(** One optimization attempt. When the remap does not clear the threshold,
    the model's edge estimates are restored to the current placement's. *)
