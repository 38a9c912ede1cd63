(** Activity counters accumulated by the engine during a run, consumed by
    the power model (Figure 13's breakdown and Figure 16's per-iteration
    energy) and by the evaluation tables. *)

type t = {
  mutable int_ops : int;       (** enabled integer ALU/MUL/DIV firings *)
  mutable fp_ops : int;
  mutable mem_ops : int;       (** loads + stores that reached the LSU *)
  mutable branch_ops : int;
  mutable disabled_ops : int;  (** predicated-off pass-through firings *)
  mutable forwarded_loads : int;
  mutable local_transfers : int;
  mutable noc_transfers : int;
  mutable iterations : int;
  mutable cycles : int;
}

val create : unit -> t
val add : t -> t -> unit
(** Accumulate [src] into the first argument. *)

val register_stats : t -> Stats.group -> unit
(** Expose every activity counter (plus [total_ops]) as snapshot-time
    probes under [grp]. *)
