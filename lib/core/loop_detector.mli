(** Loop-stream detection and the C1-C3 acceptance criteria (§4.1).

    The detector watches the retired-instruction stream for backward taken
    branches. A stable innermost loop — the same backward branch firing for
    [confirm_iterations] consecutive iterations — becomes a candidate and is
    then vetted:

    - C1 (valid loop): body fits the trace cache / accelerator capacity;
    - C2 (control check): no system instructions, no jumps, no inner loops,
      every forward branch targets inside the region, the region ends in the
      conditional backward branch to its own entry;
    - C3 (instruction mix): enough compute relative to loop size, and an
      expected trip count high enough to amortize configuration (estimated
      from the iterations already observed).

    A verdict is delivered exactly once per candidate entry address: every
    decided entry, accepted or rejected, is remembered, so a region whose
    translation later fails is never offered again. *)

type config = {
  capacity : int;               (** C1 bound = trace-cache capacity *)
  confirm_iterations : int;     (** stability threshold before vetting *)
  min_compute_fraction : float; (** C3: compute / size lower bound *)
  max_memory_fraction : float;  (** C3: memory / size upper bound *)
}

val default_config : config
(** capacity 512, confirm after 8 iterations, >= 20% compute, <= 60%
    memory. *)

type verdict =
  | Accepted of Region.t
  | Rejected of { entry : int; reason : string }

type t

val create : ?config:config -> Program.t -> t

val feed : t -> Interp.event -> verdict option
(** Present one retired instruction. A verdict is produced only at an
    iteration boundary (the confirming backward branch). *)
