(** Wire protocol of the `mesad` offload service.

    Transport is line-delimited JSON over a unix stream socket: each
    request is one JSON object on one line, each response one object on
    one line carrying the request's [id]. Requests on a single connection
    are served in order; clients wanting concurrency open one connection
    per in-flight request (the load generator does exactly that).

    Decoding is tolerant of unknown fields — a newer client may attach
    extras without breaking an older daemon — but the error taxonomy is
    {e closed}: every failure a request can experience maps to exactly one
    of the five {!error_kind}s, so failure modes are distinguishable and
    countable, and an unknown kind on the wire is a decode error, never a
    silent sixth category. The test suite pins the taxonomy strings as a
    golden list so the protocol cannot drift.

    Revision 2 adds the streaming verbs [watch] and [trace]: unlike the
    request/response ops, these turn the connection into a one-way stream
    of [frame]/[span] responses (all carrying the subscription's [id])
    terminated by a [done] response when the stream is finite. The error
    taxonomy is unchanged. *)

(** The closed error taxonomy. Keep in sync with the golden pin in
    [test/test_service.ml]; extending it is a protocol revision. *)
type error_kind =
  | Bad_request          (** malformed JSON, unknown op/kernel, bad spec *)
  | Deadline_exceeded    (** the per-request deadline elapsed *)
  | Overloaded           (** admission control shed the request (queue
                             full, or the daemon is draining) *)
  | Fabric_quarantined   (** every fabric shard's circuit breaker is open
                             and the request forbade CPU fallback *)
  | Internal             (** anything else — a bug; must stay at zero *)

val all_error_kinds : error_kind list
(** In taxonomy order, for exhaustive counting and the golden pin. *)

val error_kind_to_string : error_kind -> string
val error_kind_of_string : string -> (error_kind, string) result
(** Inverse of {!error_kind_to_string}; exposed for tests, which pin the
    taxonomy. *)

type error = { kind : error_kind; message : string }

(** One loop-offload request. *)
type run_request = {
  id : int;
  kernel : string;               (** registry name (see `mesa_cli list`) *)
  deadline_ms : float option;    (** wall-clock budget; [None] = service
                                     default (possibly unbounded) *)
  inject : string option;        (** fault schedule for this run, in
                                     {!Fault.spec_of_string} syntax —
                                     chaos testing injects here *)
  fault_seed : int;              (** PRNG seed for drawn fault victims *)
  allow_fallback : bool;         (** permit CPU execution when no healthy
                                     fabric shard is available *)
}

val run_request : ?deadline_ms:float -> ?inject:string -> ?fault_seed:int ->
  ?allow_fallback:bool -> id:int -> string -> run_request
(** Defaults: no deadline, no injection, seed 0x5EED, fallback allowed.
    Exposed for tests. *)

(** A live-telemetry metrics subscription: the daemon answers with a
    stream of [frame] responses ({!body.Frame}, schema
    [mesa-telemetry-v1]) on the same connection, one per [interval_ms]
    tick, until [frames] have been sent ([None] = until the connection
    closes or the daemon drains), then a final {!body.End_stream}. Missed
    ticks (slow consumer) are shed, never queued — the frame's own
    [dropped] counter says how many. *)
type watch_request = {
  w_id : int;
  interval_ms : float;   (** frame cadence; default 250 *)
  frames : int option;   (** stop after this many frames; [None] = endless *)
}

val watch_request : ?interval_ms:float -> ?frames:int -> id:int -> unit ->
  watch_request

(** A lifecycle-span subscription: the daemon streams [span] responses
    ({!body.Span}) for every request lifecycle event from subscription
    time on, until [spans] have been sent ([None] = endless), then
    {!body.End_stream}. A consumer slower than the daemon's bounded span
    ring skips forward — spans are dropped in bulk, never reordered. *)
type trace_request = {
  t_id : int;
  spans : int option;    (** stop after this many spans; [None] = endless *)
}

val trace_request : ?spans:int -> id:int -> unit -> trace_request

type request =
  | Run of run_request
  | Get_stats of int   (** dump the service counter tree; payload is [id] *)
  | Ping of int
  | Watch of watch_request
  | Trace of trace_request

(** Where a successful request actually executed. *)
type site =
  | Fabric  (** offloaded through the controller on a fabric shard *)
  | Cpu     (** CPU-only fallback (all shards quarantined) *)

val site_to_string : site -> string

(** A successful run. [latency_ms] is wall-clock and excluded from the
    load generator's determinism digest; everything else is a pure
    function of (kernel, shard grid, inject, routing order). *)
type ok_body = {
  kernel : string;
  cycles : int;           (** modeled total cycles of the run *)
  offloads : int;
  mem_checksum : int;     (** FNV-1a over final memory *)
  shard : int;            (** executing shard, -1 for {!Cpu} *)
  site : site;
  rerouted : bool;        (** routing skipped at least one unhealthy shard *)
  retries : int;          (** service-level retry attempts consumed *)
  quarantines : int;      (** fabric quarantines during the final attempt *)
  faults_detected : int;
  latency_ms : float;
}

type body =
  | Ok_run of ok_body
  | Err of error
  | Stats_dump of Json.t
  | Pong
  | Frame of Json.t      (** one telemetry metrics frame (a watch stream) *)
  | Span of Json.t       (** one lifecycle span (a trace stream) *)
  | End_stream           (** a finite watch/trace stream completed *)

type response = { rsp_id : int; body : body }

(** {2 Codec} — total on the closed protocol, tolerant of unknown fields. *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result

val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result
(** The [_to_json] halves are exposed for tests, which round-trip the codec;
    the wire uses {!request_to_line} and {!response_to_line}. *)

val request_to_line : request -> string
(** Compact single-line JSON (no embedded newline), ready to send. *)

val response_to_line : response -> string
