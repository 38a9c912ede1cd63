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

type scratch
(** The contention tables one run (an engine execution or a cost-model
    estimate) took from the domain-local recycling pool. *)

val scratch : unit -> scratch
(** A run that has acquired nothing yet. *)

val acquire : scratch -> int -> Contention.t
(** [acquire s capacity] revives a parked table with {!Contention.reset}
    (or creates one when the pool is empty) and records it in [s]. Safe to
    call from sys-threads sharing the domain (the `mesad` shard case). *)

val park : scratch -> unit
(** Return every table [s] acquired to the domain-local pool. The run must
    not touch them afterwards. *)
