(** The `mesad` daemon: a unix-socket front end for {!Service}.

    Transport is line-delimited JSON ({!Proto}): one request object per
    line, one response object per line. Each accepted connection gets a
    handler thread that serves its requests in order, so a client wanting
    [n] concurrent requests opens [n] connections (the load generator
    does). Worker parallelism comes from the service's domain pool, not
    from connection threads.

    Graceful drain (what SIGTERM triggers in the CLI): {!stop} stops
    accepting connections and admitting requests — late arrivals are shed
    with structured [overloaded] errors, never silence — finishes every
    in-flight request, flushes each written response before any socket
    closes, takes the final stats snapshot, then tears the listener down
    and removes the socket file. A response to an {e admitted} request is
    therefore never lost: it is written and flushed before the connection
    is shut down, so the client can always read it ahead of the EOF. *)

type t

val start : ?service_config:Service.config -> socket:string -> unit -> t
(** Create the service, then bind [socket] (an existing {e socket} file at
    that path is replaced; any other file kind is an error), start the
    accept loop in a background thread and return. Raises
    [Invalid_argument] on a rejected config, before anything is bound,
    and [Failure] or [Unix.Unix_error] on bind problems, after shutting
    the service down. *)

val service : t -> Service.t

val stop : t -> Stats.snapshot
(** Graceful drain as described above; returns the final service stats.
    A 5 s grace window bounds how long to wait, after all in-flight
    requests have settled, for handler threads still writing shed
    responses to clients that keep sending. Idempotent — later calls
    return the drained snapshot. *)

val serve :
  ?service_config:Service.config -> ?stats_out:string -> socket:string -> unit -> unit
(** The `mesa_cli serve` daemon: {!start}, log the serving banner on
    stdout, then block until SIGTERM or SIGINT and {!stop}. With
    [stats_out] the stats snapshot is written there ({!Json.write_file},
    so readers never see a torn file) after every profiling window and
    once more after the drain. Raises like {!start}. *)
