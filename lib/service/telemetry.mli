(** The live-telemetry hub behind mesad's [watch] and [trace] verbs.

    One hub per service collects three things, all under one lock:

    - {b Lifecycle spans}: every request emits admit / queue / translate /
      execute / retry / breaker / resolve events (plus profile-window,
      oracle-refresh and refine events from the feedback loop) into a
      bounded ring. Trace subscribers read the ring through a {!cursor};
      a consumer slower than the producer is skipped forward — spans are
      shed in bulk and counted, but the ones delivered are always in
      sequence order with their original sequence numbers (the shedding
      guarantee the test suite pins).
    - {b Windowed sketches}: per-outcome service latency and per-kernel
      simulated-cycle distributions in {!Sketch} sliding windows, rotated
      on a wall-clock cadence ([window_ms] per sub-window). The sketches
      themselves never read a clock — the hub injects time through the
      [clock] function, so tests drive it deterministically.
    - {b Frames}: a {!watcher} turns the hub plus a service stats
      snapshot into a {!frame} (schema [mesa-telemetry-v1]): monotone
      per-watcher sequence number, per-outcome totals/deltas/window
      quantiles, per-kernel cycle quantiles with profile-window and
      refine counts, and the raw integer-counter deltas and totals of the
      [service] and [telemetry] stats groups. A watcher's baseline starts
      empty, so the per-outcome deltas summed over its whole stream equal
      the final totals — the closure property the CI gate checks.

    Everything is observation: nothing in this module feeds back into
    request execution, so a service with telemetry idle is bit-identical
    in cycles, memory and registers to one without it. *)

(** Lifecycle phases, in request order; the last three come from the
    profiling-window → oracle → refine feedback loop. *)
type phase =
  | Admit            (** passed admission control *)
  | Queue            (** worker picked the request up *)
  | Translate        (** warm-memo / translation step on a shard *)
  | Execute          (** fabric or CPU execution finished *)
  | Retry            (** service-level retry after a quarantining run *)
  | Breaker          (** a shard breaker transition (detail: trip/...) *)
  | Resolve          (** final taxonomy outcome decided *)
  | Profile_window   (** a profiled run captured a measured snapshot *)
  | Oracle_refresh   (** measured oracles handed to the refiner *)
  | Refine           (** background refine finished (detail: accept/...) *)

type span = {
  sp_seq : int;        (** global, monotone, gap-free at the producer *)
  sp_at_ms : float;    (** hub clock at emission *)
  sp_req : int;        (** request id; -1 when not request-scoped *)
  sp_kernel : string;  (** "" when unknown *)
  sp_shard : int;      (** -1 when not shard-scoped *)
  sp_phase : phase;
  sp_outcome : string; (** "" before resolve *)
  sp_detail : string;
}

val span_to_json : span -> Json.t
val span_of_json : Json.t -> (span, string) result
(** Inverse of {!span_to_json}. An absent [req], [kernel], [shard],
    [outcome] or [detail] reads as the "unknown" value above; a present
    but mistyped one is an error. *)

val to_trace_span : span -> Trace.span
(** Perfetto projection: category ["service"], timestamp the hub clock in
    ms, one thread lane per shard (lane 0 for unscoped events). *)

type t

val create :
  ?ring:int -> ?windows:int -> ?window_ms:float -> ?clock:(unit -> float) ->
  unit -> t
(** [ring] spans kept for trace subscribers (default 4096), [windows]
    sketch sub-windows (default 8) of [window_ms] each (default 250 —
    a 2 s sliding window), [clock] the millisecond time source (default:
    wall clock since creation). The service takes every default; the
    options are exposed for tests. Raises [Invalid_argument] on a
    non-positive ring, windows or window_ms. *)

val emit :
  t -> ?req:int -> ?kernel:string -> ?shard:int -> ?outcome:string ->
  ?detail:string -> phase -> unit
(** Append one span to the ring (O(1); overwrites the oldest). *)

val observe_latency : t -> outcome:string -> float -> unit
(** Record a resolved request's wall-clock latency (ms) into that
    outcome's window sketch. *)

val observe_cycles : t -> kernel:string -> int -> unit
(** Record a successful run's simulated cycles into the kernel's window
    sketch. *)

val note_profile_window : t -> kernel:string -> unit
val note_refine_accept : t -> kernel:string -> unit

val spans_emitted : t -> int
(** Total spans ever emitted (the next sequence number). *)

(** {2 Trace subscriptions} *)

type cursor

val subscribe : t -> cursor
(** A cursor starting at the next span to be emitted (no history replay). *)

val poll : t -> cursor -> max:int -> span list
(** Up to [max] spans the cursor has not yet seen, oldest first. If the
    producer lapped the cursor, it first jumps to the oldest retained
    span, adding the skipped count to {!cursor_dropped} — delivered spans
    keep their original order and sequence numbers. *)

val cursor_dropped : cursor -> int
(** Spans shed by ring overrun for this subscriber so far. Exposed for
    tests. *)

(** {2 Watch frames} *)

type quantiles = {
  q_count : int;   (** observations in the sliding window *)
  q_p50 : float;
  q_p90 : float;
  q_p99 : float;
  q_max : float;   (** exact window maximum *)
}

type outcome_row = {
  o_total : int;          (** cumulative count from the stats snapshot *)
  o_delta : int;          (** increment since this watcher's last frame *)
  o_window : quantiles;   (** latency (ms) over the sliding window *)
}

type kernel_row = {
  k_window : quantiles;        (** simulated cycles over the window *)
  k_profile_windows : int;     (** profiled runs captured for this kernel *)
  k_refine_accepts : int;      (** background refinements installed *)
}

type frame = {
  f_seq : int;                 (** per-watcher, monotone from 0 *)
  f_at_ms : float;
  f_dropped : int;             (** ticks this watcher shed (cumulative) *)
  f_outcomes : (string * outcome_row) list;
      (** "ok" plus every taxonomy kind, all present *)
  f_kernels : (string * kernel_row) list;
  f_deltas : (string * int) list;
      (** integer counters under [service.]/[telemetry.] that moved since
          the last frame *)
  f_totals : (string * int) list;
      (** every integer counter under [service.]/[telemetry.] *)
}

val frame_to_json : frame -> Json.t
(** Schema [mesa-telemetry-v1]. *)

val frame_of_json : Json.t -> (frame, string) result
(** Inverse of {!frame_to_json} — what `mesa_cli top`/`watch` and the CI
    gate parse. *)

type watcher

val watcher : t -> watcher
(** Per-subscription state: frame sequence 0, empty stats baseline (so
    the first frame's deltas equal the totals so far). *)

val note_missed : watcher -> int -> unit
(** Record [n] shed frame ticks (slow consumer); surfaces as
    [f_dropped]. *)

val next_frame : t -> watcher -> Stats.snapshot -> frame
(** Build the watcher's next frame against [snapshot] (the service's
    current stats) and advance its baseline. *)

val parse_frames : string list -> frame list * string list
(** Decode a recorded watch stream, one frame per non-blank line: the
    frames in order, and one ["unparseable frame: line N: ..."] message per
    line that did not decode (N counts non-blank lines from 1). *)

val render_frame : frame -> string
(** The `mesa_cli top` view: a header, one line per outcome and per
    kernel, then every total as a greppable ["  path value"] line. *)

(** {2 Stream validation} *)

val check :
  ?stats:Stats.snapshot -> ?require:string list -> frame list ->
  (unit, string list) result
(** Validate a recorded watch stream: the frame sequence is gap-free, the
    clock and shed counters never go backwards, and the per-outcome deltas
    summed over the stream equal the last frame's totals. With [stats] (the
    daemon's final snapshot) those totals must also equal its
    [service.outcomes.*] counters. Each counter path in [require] must be
    at least 1, read from [stats] when given, else from the last frame's
    totals. An empty stream fails. [Error] lists every failure found. *)
