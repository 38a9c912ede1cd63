(** A static one-iteration schedule of a placed DFG, and its Gantt
    rendering — the view a hardware engineer gets from the per-PE latency
    counters when debugging a mapping.

    Times come from Equation 2 under the performance model's operation
    weights and the placement's transfer latencies (no dynamic contention;
    the engine measures that). *)

type slot = {
  node : int;
  start : float;   (** all inputs arrived *)
  finish : float;  (** output produced *)
  where : Placement.loc;
}

val compute : Perf_model.t -> Placement.t -> slot array
(** One slot per node, in node order. The model's edge estimates are set
    from the placement first, so the result always reflects the placement
    given. *)

val gantt : Dfg.t -> slot array -> string
(** One row per node: location, disassembly and a bar spanning
    [start, finish) scaled to 60 columns. *)
