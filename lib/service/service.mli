(** The `mesad` service core: admission control, routing, deadlines,
    retries and fabric health for loop-offload requests, independent of
    any transport ({!Mesad} puts a unix socket in front of it).

    One service owns [shards] logical fabric instances (identical grids)
    and a {!Pool} of worker domains. A request's life:

    + {b Validate} — unknown kernel or malformed inject spec is a
      [bad_request]. Nothing is translated here or at {!create}: the
      request's hot loop is translated by {!Controller.run} in Execute.
    + {b Admit} — at most [queue_depth] requests may be in flight;
      beyond that (or while draining) the request is shed with a
      structured [overloaded] error immediately — load shedding never
      blocks and never hangs.
    + {b Route} — round-robin over shards whose {!Breaker} admits
      traffic (closed, or half-open granting its single probe). When every
      shard is open: CPU fallback if the request allows it, else a
      [fabric_quarantined] error.
    + {b Execute} — the full controller pipeline on the shard's grid,
      composing the engine's forward-progress watchdog
      ([watchdog_window]); a fault schedule from the request is armed for
      the first attempt only (it models an environmental strike, not a
      property of the request).
    + {b Recover} — a run that quarantined its fabric still returns
      architecturally correct results (PR 2's in-run ladder), but the
      shard's breaker records the fault, and the service retries on
      another healthy shard after a seeded jittered backoff
      ({!Backoff}) up to [max_retries] times, preferring a clean fabric
      result over the degraded one.
    + {b Deadline} — the caller's wall-clock budget is enforced with
      {!Pool.await_timeout}; an expired request resolves to
      [deadline_exceeded] while its worker task, if already running, is
      abandoned (it checks a cancel flag before starting and between
      retries, and the engine watchdog bounds a wedged fabric window).

    Every request resolves to exactly one taxonomy outcome, counted in
    the [service] stats group; [internal] must stay at zero. *)

type config = {
  shards : int;            (** logical fabric instances *)
  shard_pes : int;         (** PEs per shard grid *)
  jobs : int;              (** worker domains executing requests *)
  queue_depth : int;       (** max in-flight requests before shedding *)
  max_retries : int;       (** service-level retry budget per request *)
  backoff_base_ms : float;
  backoff_cap_ms : float;
  breaker : Breaker.config;
  seed : int;              (** master seed for per-request backoff jitter *)
  default_deadline_ms : float option;
      (** applied when a request carries no deadline; [None] = unbounded *)
  watchdog_window : int;   (** engine forward-progress watchdog, per run *)
  warm : bool;
      (** Ignored: nothing is pre-translated. Kept only because perfbench
          still sets it; delete it with the next benchmark revision. *)
  profile_window : int option;
      (** [Some n]: every [n]-th clean-environment run executes with the
          attribution collector armed (pure observation — cycles, memory
          and registers stay bit-identical); each captured window feeds the
          cost model's measured oracles into a background refine pass
          whose engine- and controller-confirmed placement becomes the
          service's override for that kernel: the controller's tune hook
          forces it into every later translation, so subsequent requests
          for that kernel can only get faster. {!Runner.placement_of}
          still returns the mapper's placement.
          Counted in the [telemetry] stats group. [None] (default): no
          profiling, no refiner thread. *)
}

val default_config : config
(** 4 shards of 64 PEs, jobs = {!Pool.default_jobs}, queue depth 64,
    2 retries, 1-20 ms backoff, default breaker, no default deadline,
    watchdog 512, no profiling windows. *)

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] on a nonsensical config (no shards, empty
    queue, negative retries, a non-positive backoff base or a cap below
    it, a non-positive default deadline, invalid breaker). *)

val config : t -> config

val execute : t -> Proto.run_request -> Proto.body
(** Serve one request to completion (blocking; call from any number of
    threads). Always returns [Ok_run] or [Err] with a taxonomy kind —
    never raises, never hangs past the request's deadline. *)

val bad_request : t -> string -> Proto.body
(** Count and build a [bad_request] error for transport-level failures
    (unparseable line, unknown op) so protocol errors land in the same
    taxonomy counters as request-level ones. *)

val stats : t -> Stats.snapshot
(** Point-in-time readout of the [service] group (outcomes, breaker
    transitions, queue, execution mix) and the [telemetry] group
    (profiling windows, oracle refreshes, refine accepts/rejects, spans
    emitted, overrides installed). *)

val telemetry : t -> Telemetry.t
(** The service's live-telemetry hub: every request emits lifecycle spans
    into it and its windowed sketches back the [watch] frames. *)

val set_on_window : t -> (Stats.snapshot -> unit) -> unit
(** Hook fired (from the worker thread, outside the service lock) with a
    fresh stats snapshot each time a profiling window completes — the
    `serve --stats-out` atomic flush rides on it. Default: no-op. *)

val refine_backlog : t -> int
(** Refine jobs queued or in flight — 0 means every captured window has
    been fully processed. Exposed for tests, which wait on it for the
    refiner to drain. *)

val begin_drain : t -> unit
(** Stop admitting: every subsequent {!execute} resolves to [overloaded]
    immediately. In-flight requests keep running. Idempotent. *)

val drain : t -> Stats.snapshot
(** {!begin_drain}, then block until every in-flight request has settled;
    returns the final stats snapshot. *)

val shutdown : t -> unit
(** {!drain} and release the worker pool. The service refuses requests
    afterwards (they shed as [overloaded]). Idempotent. *)
