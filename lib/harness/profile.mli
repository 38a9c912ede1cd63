(** `mesa profile`: the user-facing readout of the cycle-attribution
    collector ({!Attribution}).

    A profile is a plain-data summary of one profiled MESA run — per-lane
    stall-taxonomy buckets (quantized so every lane sums to exactly
    [attributed_cycles]), II decomposition, measured critical path, NoC and
    cache-port occupancy. It serializes to a stable, diffable JSON schema
    ([mesa-profile-v1]) so profiles can be stored as goldens and gated in
    CI with {!diff} (`mesa_cli profile-diff`). *)

type t = {
  kernel : string;
  grid_name : string;
  rows : int;
  cols : int;
  ls_entries : int;
  mem_ports : int;
  total_cycles : int;        (** whole-program wall clock (CPU included) *)
  accel_cycles : int;        (** fabric engine cycles (clean windows) *)
  config_cycles : int;       (** controller Config charges: offload
                                 transfers, reconfiguration stalls,
                                 discarded fault windows *)
  attributed_cycles : int;   (** [accel_cycles + config_cycles] — what every
                                 lane's buckets sum to (the closure
                                 invariant) *)
  iterations : int;
  windows : int;
  lane_labels : string array;
  lane_buckets : int array array;
      (** per lane, {!Attribution.bucket_count} integers in canonical
          bucket order *)
  totals : int array;        (** bucket totals summed over lanes *)
  ii : Attribution.ii_summary;
  critical_path : int list;  (** measured-weight critical path of the
                                 dominant (most fabric cycles) region *)
  critical_path_latency : float;
  critical_path_pct : float;
      (** [100 * latency * iterations / accel_cycles] — how much of the
          fabric time one iteration's critical chain explains. Values above
          100 mean pipelining overlaps successive chains. *)
  noc_claims : int array;    (** per router slice *)
  noc_busy : int array;
  port_claims : int;
  port_busy : int;
  mem_levels : (string * int) list;
      (** cache-hierarchy access mix ({!Hierarchy.level_counts}) *)
  dominant : Attribution.bucket;
      (** the stall bucket (Busy/Drain/Idle/Masked excluded) with the most
          attributed cycles — the named bottleneck *)
}

val of_report : kernel:string -> Controller.report -> (t, string) result
(** Summarize a profiled run. [Error] when the report carries no collector
    (the run was made without [profile:true]). *)

val of_attribution :
  kernel:string -> critical_path:int list * float -> Attribution.t -> t
(** Summarize a bare engine-level run from its attribution collector (no
    {!Controller.report} required — [total_cycles] is the attributed total,
    there being no CPU side, and [mem_levels] is empty). [critical_path] is
    the chain to report (the refinement pass feeds the cost model's). *)

val closes : t -> bool
(** Every lane's bucket sum equals [attributed_cycles] and the totals row
    sums to [attributed_cycles * lanes] — the invariant tests and the CI
    smoke check enforce, also on profiles re-parsed from JSON. *)

val to_json : t -> Json.t
(** The stable [mesa-profile-v1] document. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}. *)

(** One regression found by {!diff}: a bucket (or the ["attributed"] cycle
    total) grew past its tolerance. *)
type violation = {
  v_key : string;        (** bucket name, or ["attributed"] *)
  v_before : int;
  v_after : int;
  v_limit : float;       (** the tolerance (percent) that was exceeded *)
}

val diff :
  ?tolerances:(string * float) list ->
  max_regress:float -> t -> t -> violation list
(** [diff ~max_regress before after] flags every bucket total (and the
    attributed-cycle total) that grew by more than its tolerance:
    [after > before + max(floor(before * limit / 100), floor(limit))] in
    exact integer arithmetic — so a 0 tolerance flags any increase, and a
    nonzero limit also grants that many absolute cycles (a bucket growing
    from zero would otherwise trip any percentage). [tolerances] overrides
    the limit per bucket name; everything else uses [max_regress].
    Decreases never flag. Returns the empty list when the gate passes. *)

val render_violations : violation list -> string

val render : t -> string
(** Human-readable report: cycle accounting, the bucket breakdown as a bar
    chart, per-PE utilization and NoC-link occupancy heatmaps
    ({!Chart.heat}), the II decomposition, and a closing one-liner naming
    the dominant bottleneck bucket, whether the loop is II-bound
    (recurrence) vs port-bound vs FU-bound, and the critical-path
    fraction. *)

val timeline : Attribution.t -> Trace.span list
(** Perfetto lanes: process/thread-name metadata plus one span per
    ring-buffered attributed interval — pid 1 carries one thread per fabric
    lane (PEs then load-store entries), pid 2 one thread per cache port.
    Controller spans (pid 0) are emitted by {!Controller.run} itself;
    concatenate [report.timeline @ timeline a] before
    {!Trace.to_chrome_json}. Idle and masked intervals are elided. *)
