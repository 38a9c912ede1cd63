(** A combinator DSL for tile-level loop nests.

    This is the generator frontend the ROADMAP asks for: kernels are written
    (or drawn at random, {!Tile_gen}) as a small affine loop-nest AST —
    tiling, affine loads/stores, accumulations, conditional guards — and
    lowered ({!Tile_lower}) onto the RV32 assembler DSL and the
    {!Kernel.t} interface, so every program the DSL can express immediately
    runs on all of the repo's execution substrates.

    The AST carries its own exact evaluator (built on {!Interp.Alu}, the same
    32-bit semantics the interpreter and the accelerator engine share), which
    gives each program an independent third oracle: interpreter vs
    accelerator catches engine bugs, DSL-evaluation vs either catches
    lowering bugs.

    Shapes are deliberately restricted (one loop per nesting level, guards
    never contain loops, at most four arrays and three temporaries per file)
    so that lowering needs no register allocator and the validity of a
    program is decidable by {!validate} before any code is emitted. *)

type dtype = I32 | F32

type array_decl = {
  aname : string;
  dtype : dtype;
  input : bool;  (** filled with seeded data by {!setup}; outputs start zeroed *)
  elems : int;   (** 4-byte elements *)
}

(** Index expression [sum coeffs*var + const], in elements. *)
type affine = { coeffs : (string * int) list; const : int }

type ibin = Add | Sub | Mul | And | Or | Xor
type fbin = Fadd | Fsub | Fmul | Fmin | Fmax

(** Guard comparisons (signed). *)
type cmp = Lt | Ge | Eq | Ne

type exp =
  | Iconst of int
  | Fconst of float           (** must be exactly representable in single *)
  | Ivar of string            (** a loop induction variable *)
  | Itmp of int               (** integer temporary 0..2, zero-initialised *)
  | Ftmp of int               (** FP temporary 0..2, zero-initialised *)
  | Iload of string * affine
  | Fload of string * affine
  | Ibin of ibin * exp * exp
  | Fbin of fbin * exp * exp
  | I2f of exp
  | F2i of exp                (** truncating convert, RTZ *)

type stmt =
  | Iset of int * exp
  | Fset of int * exp
  | Istore of string * affine * exp
  | Fstore of string * affine * exp
  | If of cmp * exp * exp * stmt list  (** guard; body contains no loops *)
  | For of for_loop

and for_loop = {
  var : string;
  extent : int;
  tile_tag : string option;
      (** original variable name when this loop came out of {!tile} *)
  body : stmt list;  (** at most one nested [For] *)
}

type spec = {
  sname : string;
  seed : int;  (** input-data seed used by {!setup} *)
  arrays : array_decl list;
  body : stmt list;  (** exactly one top-level [For] *)
}

(** {1 Combinators} *)

val array_i : ?input:bool -> string -> int -> array_decl
val array_f : ?input:bool -> string -> int -> array_decl

val idx : ?const:int -> (string * int) list -> affine
(** [idx [ ("i", 8); ("j", 1) ]] is the element index [8*i + j]. *)

val for_ : string -> int -> stmt list -> stmt
val if_ : cmp -> exp -> exp -> stmt list -> stmt

val accum_i : int -> ibin -> exp -> stmt
(** [accum_i t op e] is [t := t op e] — an integer reduction step. *)

val accum_f : int -> fbin -> exp -> stmt

val tile : t:int -> stmt -> (stmt, string) result
(** Strip-mine a [For] by factor [t] (which must divide the extent) into an
    outer [var_o] / inner [var_i] pair, rewriting every use of the variable.
    Both new loops are tagged so {!untile} can undo the split. *)

val untile : stmt -> stmt option
(** Undo one {!tile} application; [None] if the statement is not an intact
    tiled pair. *)

(** {1 Analysis} *)

val validate : spec -> (unit, string) result
(** Check every restriction lowering relies on: shape (one loop per level,
    no loops under guards, single top-level loop), resource bounds (arrays,
    temporaries, loop depth, expression depth), static in-bounds indexing,
    immediate ranges, iteration-space volume, and type correctness. *)

val stmt_count : spec -> int
(** Number of statement nodes — the shrinker's size metric. *)

val fp_spec : spec -> bool
(** Uses the FP pipeline anywhere. *)

val innermost_parallel : spec -> bool
(** Conservative safety analysis for marking the innermost loop parallel
    (the pragma MESA's tiling keys on): every store indexed injectively by
    the innermost variable, no array both read and written in the body, at
    most one store per array, no loop-carried or guarded temporary flow. *)

val outer_extent : spec -> int
(** Trip count of the outermost loop — the kernel's [n] / slicing range. *)

(** {1 Execution} *)

val base_of : spec -> string -> int
(** Byte base address of an array (fixed layout, 256 KiB per slot). *)

val setup : spec -> Main_memory.t -> unit
(** Fill input arrays with seeded deterministic data. *)

val eval : spec -> Main_memory.t -> unit
(** Reference-execute the whole nest against [mem] with bit-exact RV32IMF
    semantics ({!Interp.Alu}); temporaries start at zero and persist across
    iterations, exactly like the lowered registers. Exposed for tests,
    which check the lowering against it. *)

val check : spec -> Main_memory.t -> (unit, string) result
(** Compare every array region of [mem] word-by-word (NaN-safe) against a
    {!setup}+{!eval} run. The partial application [check spec] runs the
    reference once; the closure only reads its result, so domains may share
    it. *)

(** {1 Serialization} *)

val to_string : spec -> string
val to_json : spec -> Json.t
val of_json : Json.t -> (spec, string) result
