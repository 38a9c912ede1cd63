(** Per-shard circuit breaker: PR 2's per-run quarantine lifted into a
    cross-request health tracker.

    State machine (the classic three states):

    - [Closed] — the shard takes traffic. Each faulted run (a fabric
      quarantine inside the controller) increments a consecutive-failure
      count; reaching [trip_threshold] trips the breaker [Open]. Any clean
      run resets the count.
    - [Open] — the shard takes no traffic; the router sends requests to
      healthy shards or CPU fallback instead. The cooldown is measured in
      {e admitted requests} ({!tick}), not wall-clock time, so breaker
      evolution is bit-reproducible at [--concurrency 1] regardless of
      machine speed. When it elapses the breaker moves to [Half_open].
    - [Half_open] — exactly one probe request may be routed to the shard
      ({!acquire} returns [`Probe] once). A clean probe recloses the
      breaker; a faulted probe reopens it with the cooldown doubled (capped
      at [max_cooldown]).

    The type is not thread-safe; the service serializes all routing and
    outcome recording under one lock. *)

type config = {
  trip_threshold : int;  (** consecutive faulted runs before tripping *)
  cooldown : int;        (** admitted requests an open breaker sits out *)
  max_cooldown : int;    (** cap for the doubling-on-reopen cooldown *)
}

val default_config : config
(** threshold 3, cooldown 8, max 64. *)

val validate_config : config -> (unit, string) result

type state = Closed | Open | Half_open

type t

val create : config -> t
(** Starts [Closed]. Raises [Invalid_argument] on an invalid config. *)

val state : t -> state

(** Result of recording a run outcome, for the service's stats. *)
type transition =
  | No_change
  | Tripped     (** Closed -> Open *)
  | Reclosed    (** Half_open -> Closed (a recovery) *)
  | Reopened    (** Half_open -> Open, cooldown doubled *)

val acquire : t -> [ `Route | `Probe ] option
(** Ask to route a request to this shard. [Some `Route] in [Closed];
    [Some `Probe] the first time in [Half_open] (subsequent calls return
    [None] until the probe's outcome is recorded); [None] in [Open]. *)

val tick : t -> unit
(** An admitted request was routed elsewhere: advance an [Open] breaker's
    cooldown, entering [Half_open] when it elapses. No-op otherwise. *)

val record : t -> probe:bool -> ok:bool -> transition
(** Record the outcome of a run previously granted by {!acquire}.
    [probe] must echo what {!acquire} returned. Outcomes that arrive after
    an intervening state change (another request tripped the breaker
    first) are ignored ([No_change]). *)
