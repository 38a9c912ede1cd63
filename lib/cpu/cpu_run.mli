(** Coupled functional + timing execution of a program on one OoO core. *)

type result = {
  halt : Interp.halt;
  summary : Ooo_model.summary;
}

val run :
  ?config:Ooo_model.config ->
  ?hierarchy:Hierarchy.t ->
  Program.t ->
  Machine.t ->
  result
(** Interpret the program from [Machine.pc] until it halts, feeding every
    retired instruction to the timing model. The machine is mutated to the
    final architectural state. A private default hierarchy is created when
    none is given. *)

val cycles : result -> int
val ipc : result -> float
