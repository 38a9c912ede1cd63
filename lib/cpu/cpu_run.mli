(** Coupled functional + timing execution of a program on one OoO core:
    the interpreter's semantics ({!Interp.exec}) charged to the OoO timing
    model ({!Ooo_model.retire}) one instruction at a time. *)

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
(** Interpret the program from [Machine.pc] until it halts, charging every
    retired instruction to the timing model: a loop over {!step}, stopped
    with [Step_limit] after 100 million instructions, like {!Interp.run}.
    The machine is mutated to the final architectural state. A private
    default hierarchy is created when none is given. *)

val cycles : result -> int
val ipc : result -> float

(** {1 The timed step}

    What {!run} loops over and what [Controller.run] takes at each
    instruction boundary. *)

type t
(** One core: a machine, the program it runs and that program's timing
    model. *)

val create : Ooo_model.config -> Hierarchy.t -> Program.t -> Machine.t -> t
(** Decode [prog] into a fresh {!Ooo_model.t} under [config] over [hier]. *)

val model : t -> Ooo_model.t

(** What one {!step} did. *)
type verdict =
  | Retired         (** retired one instruction *)
  | Backward_taken  (** retired a taken conditional branch to a lower
                        address: the event the loop detector watches *)
  | Halted          (** retired nothing; {!halt} says why *)

val step : t -> verdict
(** Execute the instruction at [Machine.pc] and charge it to the model:
    its effective address and branch direction are read before it writes
    the registers, the PC moves to the next instruction, and nothing is
    allocated. An [ecall]/[ebreak], a PC outside the program or a memory
    fault halts the core with the machine as it was before the step. *)

val halt : t -> Interp.halt
(** Why the last {!step} returned [Halted]. *)
