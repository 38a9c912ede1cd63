(** An OpenCGRA-style modulo-scheduling mapper, the compiler baseline of
    Figure 12.

    Unlike MESA, a CGRA compiler time-multiplexes PEs: it searches for the
    smallest initiation interval II (from the resource/recurrence lower
    bound upward) at which every operation can be assigned an (PE, cycle
    mod II) slot with single-cycle-per-hop routing to its consumers. The
    steady-state throughput is then one iteration per II cycles — typically
    better than MESA's unpipelined spatial mapping (compilers are smarter),
    but without MESA's loop-level tiling, which is what Figure 12's second
    comparison shows. *)

type schedule = {
  ii : int;                       (** initiation interval achieved *)
  makespan : int;                 (** schedule length of one iteration *)
  slots : (int * int) array;      (** node -> (pe index, start cycle) *)
}

val resource_mii : Dfg.t -> pes:int -> int
(** ceil(ops / PEs): the resource lower bound on II. Exposed for tests. *)

val recurrence_mii : Dfg.t -> int
(** Longest loop-carried dependence chain under unit transfers. Exposed
    for tests. *)

val schedule : Dfg.t -> grid:Grid.t -> (schedule, string) result
(** Iterative-II modulo scheduling on [grid] (every PE general-purpose, as
    OpenCGRA configures FUs per need). Fails if no II up to 128 routes. *)

val ipc : Dfg.t -> schedule -> float
(** Per-iteration IPC: instructions over the one-iteration makespan. *)
