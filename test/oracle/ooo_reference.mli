(** The event-driven OoO timing model that {!Ooo_model} replaced, kept as
    the differential oracle for {!Cpu_run.run}: it steps the interpreter
    into one event record per retired instruction and derives every timing
    fact from the instruction on each feed. Only tests call it. *)

val run :
  ?config:Ooo_model.config ->
  ?hierarchy:Hierarchy.t ->
  Program.t ->
  Machine.t ->
  Interp.halt * Ooo_model.summary
(** What {!Cpu_run.run} computes, the event-driven way: the same halt, the
    same final machine and, the claim under test, the same summary. *)
