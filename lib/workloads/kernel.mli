(** A benchmark kernel: one hot loop in RV32IMF assembly plus everything
    needed to run and validate it.

    Each kernel mirrors the instruction mix of a Rodinia benchmark's
    innermost loop (§6.1 cross-compiles the originals to RV32G; MESA only
    ever sees that loop's machine code, so reproducing the loop reproduces
    the experiment). Iteration spaces are expressed as a [lo, hi) index
    range so the multicore baseline can slice them across threads; kernels
    whose loop is annotated parallel carry the corresponding pragma in their
    program, which is what MESA's tiling keys on.

    Every kernel has an OCaml reference ({!check}) computing the expected
    output with identical single-precision rounding — the equivalence the
    test suite enforces on every execution substrate. *)

type t = {
  name : string;
  description : string;
  parallel : bool;   (** the hot loop carries an OpenMP annotation *)
  fp : bool;         (** uses the FP pipeline *)
  n : int;           (** iteration count of the hot loop *)
  program : Program.t;
  setup : Main_memory.t -> unit;
      (** write the (seeded, deterministic) inputs, generated once by the
          kernel's constructor *)
  args : lo:int -> hi:int -> (Reg.t * int) list;
      (** integer argument registers for the slice [lo, hi) *)
  fargs : (Reg.t * float) list;   (** FP argument registers *)
  check : Main_memory.t -> (unit, string) result;
      (** validate outputs against the OCaml reference *)
}

val prepare : t -> Main_memory.t -> Machine.t
(** Fresh machine over [mem] with [setup] applied and the full-range
    arguments loaded — ready to run the whole kernel. *)

val prepare_slice : t -> Main_memory.t -> lo:int -> hi:int -> Machine.t
(** Same, but for one thread's slice (memory must already be set up). *)

(** {1 Helpers for kernel authors} *)

val r32 : float -> float
(** Single-precision rounding, for reference computations. *)

val float_input : Prng.t -> float
(** A well-conditioned random single in [\[-2, 2\)]. *)

val check_words : Main_memory.t -> addr:int -> expected:int array -> (unit, string) result
val check_floats : Main_memory.t -> addr:int -> expected:float array -> (unit, string) result
(** Exact comparison (floats were produced by identical rounding). *)
