(** Per-PE cycle attribution: the collector behind `mesa profile`.

    Every engine cycle of every lane (one lane per PE, one per load-store
    entry) is charged to exactly one bucket of a closed stall taxonomy, so
    that for each lane

    {v sum over buckets = engine cycles + controller config charges v}

    — the closure invariant the test suite enforces. The engine threads a
    collector through its hot loop (charging is a handful of float adds per
    node firing and changes no timing state); the controller brackets
    engine windows with {!begin_window} / window-end bookkeeping and
    charges configuration overhead; `lib/harness/profile.ml` turns the
    readout into JSON, heatmaps and Perfetto timelines.

    Memory stays O(lanes x buckets): full per-lane totals, plus a bounded
    ring buffer of the most recent attributed intervals per lane for
    timeline rendering (older intervals fall off; the totals do not). *)

(** The closed taxonomy. Every attributed cycle lands in exactly one. *)
type bucket =
  | Busy             (** executing an enabled (or predicated-off) op *)
  | Recurrence_wait  (** waiting for producer values (dependence chains) *)
  | Mem_port_stall   (** queued on a cache port *)
  | Noc_stall        (** waiting on NoC router-slice injection *)
  | Long_op          (** occupied by an iterative div/sqrt unit *)
  | Config           (** configuration writes, offload state transfer,
                         discarded (faulted) windows — controller-charged *)
  | Drain            (** after the lane's last firing, before loop exit *)
  | Idle             (** lane never used by the mapped SDFG *)
  | Masked_faulty    (** lane masked out of the fabric by fault recovery *)

val buckets : bucket list
(** All buckets, in canonical (serialization) order. *)

val bucket_count : int
val bucket_index : bucket -> int
val bucket_name : bucket -> string
val bucket_of_name : string -> bucket option

type t

val create : ?ring:int -> grid:Grid.t -> unit -> t
(** A collector for [grid]'s geometry. [ring] bounds the per-lane interval
    ring buffers (default 256 intervals per lane; must be positive); it is
    exposed for tests. *)

val grid : t -> Grid.t

(** {2 Lanes} *)

val lane_count : t -> int
(** PE lanes (row-major) followed by load-store-entry lanes. *)

val pe_lane : t -> Grid.coord -> int
val ls_lane : t -> int -> int
val lane_label : t -> int -> string
(** ["pe_R_C"] or ["ls_E"]. *)

(** {2 Window bracketing (controller / test driver side)} *)

val begin_window : t -> at:float -> unit
(** Arm the collector for one engine execution whose window-relative time 0
    sits at absolute (wall-clock) cycle [at]; snapshots the accumulated
    state so {!abort_window} can discard the window. *)

val abort_window : t -> unit
(** Roll the collector back to the last {!begin_window}: a faulted window's
    cycles are discarded by the controller and must not pollute the
    attribution (they are re-charged as {!Config} recovery overhead). If
    the aborted window pushed more intervals than a ring's capacity, that
    ring's replay of older intervals is approximate; totals stay exact. *)

val charge_config : t -> int -> unit
(** Charge [cycles] of the {!Config} bucket to every lane (configuration
    writes, offload transfers, discarded fault windows), growing the
    per-lane attributed total by the same amount. *)

(** {2 Engine-side recording} *)

val charge_op : t ->
  lane:int -> start:float -> noc_wait:float -> port_wait:float ->
  service:float -> long_op:bool -> unit
(** One node firing on [lane]: inputs arrived at window-relative [start]
    (of which up to [noc_wait] cycles were NoC queueing — charged
    {!Noc_stall}, the rest of the gap {!Recurrence_wait}), then the op
    queued [port_wait] cycles on a cache port ({!Mem_port_stall}) and
    executed for [service] cycles ({!Busy}, or {!Long_op} when [long_op]).
    Overlap with already-attributed time on the lane (pipelined or tiled
    firings) is clipped so the lane's timeline never double-charges. *)

val observe_ii : t ->
  rec_:float -> mem:float -> fu:float -> achieved:float -> unit
(** One iteration's initiation-interval components: the loop-carried
    recurrence bound, the memory-port throughput bound, the iterative-unit
    bound, and the II actually achieved. *)

val note_noc_slice : t -> slice:int -> claims:int -> busy:int -> unit
(** Window-end readout of one router slice's contention table: total
    transfers injected and distinct busy cycles. Accumulated per slice. *)

val note_port_access : t -> port:int -> issue:float -> service:float -> unit
(** One cache-port access: window-relative issue time and service latency,
    recorded into the port's interval ring for timeline lanes. *)

val note_port_totals : t -> claims:int -> busy:int -> unit
(** Window-end readout of the shared memory-port contention table. *)

val end_window : t -> grid:Grid.t -> cycles:int -> iterations:int -> unit
(** Close the window: charge every lane's uncovered tail ({!Drain} for
    lanes that fired, {!Idle} for unused lanes, {!Masked_faulty} for PEs
    masked out of [grid] — the possibly-degraded fabric the window ran on)
    and fold [cycles] into the attributed totals. Called by the engine at
    the end of a successful execution. *)

(** {2 Readout} *)

val windows : t -> int
val iterations : t -> int

val engine_cycles : t -> int
(** Sum of [cycles] over completed (non-aborted) windows. *)

val config_cycles : t -> int
val total_cycles : t -> int
(** [engine_cycles + config_cycles] — what every lane's buckets sum to. *)

val lane_buckets : t -> int -> int array
(** Integer cycles per bucket for one lane, quantized with
    largest-remainder rounding so the array sums to exactly
    {!total_cycles}. Deterministic. *)

val totals : t -> int array
(** {!lane_buckets} summed over all lanes. *)

val lane_intervals : t -> int -> (float * float * bucket) list
(** The lane's ring-buffered recent intervals, oldest first, as
    [(absolute_start, duration, bucket)]. *)

val port_intervals : t -> int -> (float * float) list
(** Recent accesses on one cache port, oldest first, as
    [(absolute_issue, service)]. *)

val port_count : t -> int
val noc_claims : t -> int array
val noc_busy : t -> int array
val port_claims : t -> int
val port_busy : t -> int

type ii_summary = {
  ii_iterations : int;
  ii_mean : float;          (** mean achieved II *)
  ii_rec_mean : float;
  ii_mem_mean : float;
  ii_fu_mean : float;
  ii_rec_bound : int;       (** iterations whose II the recurrence set *)
  ii_mem_bound : int;
  ii_fu_bound : int;
}

val ii_summary : t -> ii_summary
