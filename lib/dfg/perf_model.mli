(** Mutable latency weights over a {!Dfg.t} — MESA's real-time performance
    model.

    Node weights start from the static operation-latency table and are
    replaced by running averages of measured per-instruction latencies
    reported by the accelerator's counters (§5.2). Edge weights start from
    the interconnect's analytic estimate (set when a mapping is made) and are
    likewise refined by measurement. The optimizer reads
    {!iteration_latency}/{!critical_path} from here to decide whether a
    remap is worthwhile. *)

type t

val create : Dfg.t -> t
(** Fresh model; node weights seeded from {!Latency.accel}, all transfers
    at the 1-cycle neighbour estimate. *)

val graph : t -> Dfg.t

val op_latency : t -> int -> float
(** Current weight of a node: measured mean if any sample exists, else the
    static default. *)

val observe_op : t -> int -> float -> unit
(** Record a measured operation latency (counter readout). Memory nodes'
    AMAT is fed through here too. *)

val transfer : t -> int -> int -> float
(** Current weight of edge [(i, j)]. Exposed for tests. *)

val set_transfer_estimate : t -> int -> int -> float -> unit
(** Install the analytic estimate for an edge (called by the mapper when
    placement decides distances). Clears any stale measurements. *)

val observe_transfer : t -> int -> int -> float -> unit

val iteration_latency : t -> float
(** Modeled latency of one iteration under current weights (Eq. 2). *)

val completion_times : t -> float array
val critical_path : t -> int list
