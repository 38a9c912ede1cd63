(** Types and scratch state shared by the event-driven engine ({!Engine})
    and the legacy reference oracle ([Engine_reference], test-only). See {!Engine} for
    the full field documentation — callers use that module; this one exists
    so both implementations return literally the same record types. *)

type detection = {
  d_kinds : Fault.kind list;
  d_latency : int;
  d_watchdog : bool;
}

type result = {
  cycles : int;
  iterations : int;
  completed : bool;
  budget_exhausted : bool;
  fault : detection option;
  exit_pc : int;
  activity : Activity.t;
  measured : Stats.snapshot;
}

val u32 : int -> int
val s32 : int -> int

exception Exec_fail of string

val scratch_take : unit -> Contention.t option
(** Claim a recycled contention table from the domain-local pool, if one is
    parked (revive it with {!Contention.reset}). Safe to call from
    sys-threads sharing the domain (the `mesad` shard case). *)

val scratch_park : Contention.t list -> unit
(** Return a finished execution's tables to the domain-local pool. *)
