(** The legacy all-nodes-every-iteration engine, kept verbatim as the
    differential oracle for the event-driven {!Engine}. Semantics and result
    schema are documented on {!Engine.execute}; this implementation is the
    definition the event-driven core must match bit-for-bit (cycles, memory,
    registers, stats snapshots, attribution sums). Only tests call it. *)

val execute :
  ?max_iterations:int ->
  ?stop_after:int ->
  ?fault:Fault.t ->
  ?watchdog_window:int ->
  ?attribution:Attribution.t ->
  config:Accel_config.t ->
  dfg:Dfg.t ->
  machine:Machine.t ->
  hier:Hierarchy.t ->
  unit ->
  (Engine.result, string) Stdlib.result
