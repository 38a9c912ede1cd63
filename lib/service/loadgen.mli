(** Load generator for `mesad`: replay a seeded stream of mixed-kernel
    offload requests against a running daemon and measure how it degrades.

    The request stream is a pure function of [seed] — kernel choice,
    chaos fault schedules, fallback permission are all drawn per request
    index from splitmix — so two runs with the same config send the same
    requests. At [concurrency = 1] the daemon's routing and breaker
    evolution are also deterministic, and the per-request result
    {!result.digest} (FNV-1a over everything except latency) is
    bit-identical across runs — the service-level mirror of the fuzz
    campaign's digest discipline.

    Chaos mode ([chaos = true]) arms a fault schedule on a seeded
    fraction of requests: mid-service fabric faults that quarantine
    shards, trip circuit breakers and exercise reroute / retry /
    half-open recovery. The measured outcome histogram plus the daemon's
    own [service] stats group (fetched at the end of the run) let a CI
    gate assert that faults degrade throughput gracefully — zero
    [internal] errors, every request resolving to a taxonomy outcome —
    rather than failing requests. *)

type config = {
  socket : string;
  requests : int;
  concurrency : int;        (** client lanes; one connection each *)
  seed : int;
  kernels : string list;    (** mix drawn uniformly per request *)
  chaos : bool;
  chaos_rate : float;       (** fraction of requests carrying a fault *)
  injects : string list;    (** fault schedules drawn from in chaos mode *)
  deadline_ms : float option;
  no_fallback_rate : float; (** fraction with [allow_fallback = false] *)
}

val default_config : config
(** socket "/tmp/mesad.sock", 200 requests, concurrency 8, seed 1,
    kernels nn/kmeans/bfs, chaos off at rate 0.25, injects drawn from
    transient/permanent/link/ports schedules plus a dense transient storm
    that forces a mid-run quarantine, no deadline, no-fallback rate 0.1
    (chaos mode only). *)

val request_at : config -> int -> Proto.run_request
(** The deterministic request for stream index [i] (its [id] is [i]). *)

(** Per-request record kept by the lanes, for the digest and histogram. *)
type probe_result = {
  index : int;
  outcome : string;       (** "ok" | taxonomy kind | "unanswered" *)
  cycles : int;
  mem_checksum : int;
  site : string;          (** "fabric" | "cpu" | "" *)
  shard : int;
  rerouted : bool;
  retries : int;
  quarantines : int;
  latency_ms : float;     (** wall-clock; excluded from the digest *)
}

type result = {
  sent : int;
  completed : int;            (** responses received *)
  closed_unanswered : int;    (** connection closed before a response —
                                  the request was never admitted (only
                                  happens across a daemon drain) *)
  protocol_errors : int;      (** garbage or mismatched responses; 0 *)
  outcomes : (string * int) list;
      (** "ok" plus every taxonomy kind, all present (zeros included) *)
  outcome_latency : (string * (int * float * float)) list;
      (** per answered outcome: (count, p50 ms, p99 ms), computed through
          a {!Sketch} so quantile semantics match the daemon's watch
          frames; outcomes with no answered probes are absent. Latency
          stays out of {!result.digest}. *)
  ok_fabric : int;
  ok_cpu : int;
  rerouted : int;
  retried : int;              (** ok responses that consumed retries *)
  quarantines_observed : int;
  p50_ms : float;
  p99_ms : float;
  mean_ms : float;
  max_ms : float;
  wall_s : float;
  throughput_rps : float;
  digest : int;               (** FNV-1a over every probe, latency excluded *)
  service_stats : Json.t option;
      (** daemon's counter tree, fetched after the run (None if the
          daemon was already gone) *)
}

(** {2 The mesad client}

    One line-delimited JSON client (connect, send, read responses) serves
    the load lanes, the final stats fetch and the `watch`/`top`/`trace`
    subscribers. Connecting ignores SIGPIPE process-wide, so a daemon
    vanishing mid-send surfaces as an EPIPE error on the write. *)

val subscribe :
  socket:string ->
  Proto.request ->
  on_body:(Proto.body -> (unit, string) Stdlib.result) ->
  (int, string) Stdlib.result
(** Connect, send a [Watch] or [Trace] request and hand each streamed body
    to [on_body] until [End_stream], the connection closes (a drain ends
    an endless stream this way) or [on_body] fails. Returns how many
    bodies were handled. A failed connect, an unparseable response or an
    [Err] body is an [Error] line. *)

(** {2 The load run} *)

val run : config -> result
(** Drive the full stream; blocks until every lane finishes. Raises
    [Unix.Unix_error] if the initial connections cannot be opened. *)

val result_to_json : result -> Json.t
(** Schema [mesa-loadgen-v2]: v1 plus the [schema] tag and
    [outcome_latency_ms]; every v1 field and the digest are unchanged. *)

val find_service_counter : result -> string -> int option
(** Look up a counter in the fetched daemon stats by dotted path, e.g.
    ["service.breaker.recloses"]. *)

val gate_failures :
  require_zero_internal:bool -> require_recoveries:bool -> result -> string list
(** The CI gates of `mesa_cli loadgen`, one line per failed gate:
    [require_zero_internal] wants zero [internal] outcomes, protocol errors
    and unanswered requests; [require_recoveries] wants the daemon to
    report both breaker trips and half-open recloses. *)
