(** Lowering {!Tile_dsl} specs onto the RV32 assembler DSL.

    The emitted program follows the repo's kernel conventions so a lowered
    spec is a drop-in {!Kernel.t} body: array bases arrive in [a0]..[a3],
    the outermost loop runs over the slice [\[a4, a5)] (so the multicore
    baseline can split it), and the hot loop ends in the canonical
    [addi ind, ind, 1; blt ind, bound, label] shape the loop detector keys
    on. When the innermost loop passes {!Tile_dsl.innermost_parallel} it is
    annotated with the OpenMP pragma, which is what MESA's tiling uses.

    Register map (fixed — validation bounds every resource):
    - [a0]..[a3]: array base addresses, [a4]/[a5]: slice lo/hi
    - [s2]..[s6]: inductions by depth; [s7]..[s10]: inner loop bounds
    - [t1]..[t3] / [ft0]..[ft2]: the DSL temporaries, zero-initialised
    - [t4]..[t6],[a6],[a7] / [ft3]..[ft7]: expression scratch stacks
    - [t0]: affine address helper *)

type built = {
  spec : Tile_dsl.spec;
  program : Program.t;
  n : int;           (** outermost extent = iteration count / slice range *)
  parallel : bool;   (** innermost loop carries the pragma *)
  fp : bool;
  setup : Main_memory.t -> unit;
  args : lo:int -> hi:int -> (Reg.t * int) list;
  fargs : (Reg.t * float) list;
  check : Main_memory.t -> (unit, string) result;
      (** against the DSL evaluator — an oracle independent of both the
          interpreter and the engine, so it catches lowering bugs too *)
}

(** Deliberately injectable lowering bugs, for mutation-testing the fuzzer:
    [Store_skew] displaces every store whose index uses two or more loop
    variables by one element. *)
type defect = Store_skew

val defect_to_string : defect -> string

val lower : ?defect:defect -> Tile_dsl.spec -> (built, string) result
(** Validate, then emit. Lowering is deterministic: equal specs produce
    byte-identical programs. *)

val lower_exn : Tile_dsl.spec -> built
