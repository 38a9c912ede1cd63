(** Differential fuzzing of the whole MESA stack.

    Each case draws a random {!Tile_dsl} program ({!Tile_gen.generate}) and
    a random fabric configuration (the same grid / port / interconnect /
    cache axes the differential qcheck suite uses), then runs the program
    through the RV32 interpreter and the full controller pipeline and
    demands:
    - bit-identical final memory and architectural registers,
    - the kernel's DSL-evaluator reference ({!Tile_lower.built.check}) —
      this third oracle is what catches *lowering* bugs, which
      interpreter-vs-accelerator alone cannot (both would execute the same
      miscompiled program),
    - exact cycle-accounting closure
      ([total = cpu + accel + overhead]), and, on profiled cases, stall
      attribution that closes against it.

    Everything is deterministic from [seed]: per-case seeds are drawn
    sequentially up front and distributed to workers, so the summary — and
    its [digest] — are bit-identical across runs and [--jobs] values.

    On failure the program is shrunk ({!Tile_gen.shrink_candidates},
    greedy re-run) to a minimal reproducer, ready to be written to a corpus
    directory as JSON and replayed with [mesa_cli fuzz --replay]. *)

type fabric = {
  rows : int;
  cols : int;
  ports : int;
  kind : Interconnect.kind;
  l1_kb : int;
  l2_kb : int;
  profile : bool;  (** arm the cycle-attribution collector for this case *)
}

(** The draw axes, shared with the qcheck differential tests (test/gen.ml)
    so there is exactly one generator definition. *)

val rows_choices : int array
val cols_choices : int array
val ports_choices : int array
val kind_choices : Interconnect.kind array
(** The fuzzer's fabric axes, exposed for tests: their qcheck generators
    draw architectures from the same axes. *)

val draw_fabric : Prng.t -> fabric
val fabric_to_json : fabric -> Json.t
val fabric_of_json : Json.t -> (fabric, string) result
(** The corpus entry's [fabric] codec, exposed for tests, which put every
    document decoder through the same checks. *)

(** A passing case's fingerprint — folded into the run digest. *)
type observation = {
  cycles : int;
  offloads : int;
  mem_checksum : int;
}

val run_case :
  ?defect:Tile_lower.defect ->
  Tile_dsl.spec ->
  fabric ->
  (observation, string) result
(** One full differential check; [Error detail] describes the first
    violated oracle. *)

type failure = {
  index : int;
  kernel_seed : int;
  fabric : fabric;
  detail : string;         (** of the original (unshrunk) failure *)
  spec : Tile_dsl.spec;    (** as generated *)
  shrunk : Tile_dsl.spec;  (** minimal reproducer *)
  shrunk_detail : string;
  shrink_steps : int;      (** accepted reduction steps *)
}

val shrink :
  ?defect:Tile_lower.defect ->
  ?max_attempts:int ->
  Tile_dsl.spec ->
  fabric ->
  Tile_dsl.spec * string * int
(** Greedily minimize a failing spec under the same fabric; returns the
    smallest still-failing spec, its failure detail and the number of
    accepted steps. [max_attempts] bounds total re-executions (default
    300). Exposed for tests, which shrink a planted defect directly. *)

type summary = {
  cases : int;
  offloaded_cases : int;  (** cases where at least one region ran on the fabric *)
  total_offloads : int;
  failures : failure list;
  digest : int;           (** FNV-1a over every case's observation *)
}

val run :
  ?jobs:int ->
  ?defect:Tile_lower.defect ->
  ?max_shrink:int ->
  seed:int ->
  count:int ->
  unit ->
  summary

val report : corpus:string -> seed:int -> summary -> string
(** The campaign report `mesa_cli fuzz` prints: a header with the digest,
    then either "no differential mismatches" or, per failure, its detail,
    its shrink and the corpus entry it writes into [corpus] (created if
    needed) as [fail-NNNN.json]: a self-contained entry with the seeds,
    the fabric, the original and shrunk specs, the shrunk program's
    disassembly and the failure details. *)

(** Why a corpus entry did not replay cleanly: [Malformed] when it lacks a
    parseable spec ([shrunk], else [spec]) or [fabric]; [Still_fails] with
    the differential mismatch when it ran and failed again. *)
type replay_error = Malformed of string | Still_fails of string

val replay :
  ?defect:Tile_lower.defect -> Json.t -> (observation, replay_error) result
(** Re-run a corpus entry (its shrunk spec under its fabric). *)
