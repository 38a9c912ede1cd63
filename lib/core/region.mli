(** A code region accepted for acceleration: one innermost loop, from its
    entry address to its backward branch (inclusive). *)

type t = {
  entry : int;                (** address of the first instruction *)
  back_branch_addr : int;     (** address of the loop's backward branch *)
  instrs : Isa.t array;       (** body in program order *)
  pragma : Program.pragma option;
  observed_iterations : int;  (** iterations watched before confirmation *)
}

val size : t -> int
val exit_addr : t -> int
(** Fall-through address when the loop completes. *)

val addr_of_index : t -> int -> int

(** Instruction-mix statistics backing criterion C3 (§4.1). *)
type mix = {
  compute : int;
  memory : int;
  control : int;
  fp : int;
  unsupported : int;
}

val mix : t -> mix
