(** Loop-stream detection and the C1-C3 acceptance criteria (§4.1).

    The detector watches the retired-instruction stream for backward taken
    branches, and sees nothing else: its caller ({!Controller.run}, on
    {!Cpu_run.step}'s [Backward_taken] verdict) presents only those. A stable innermost loop — the same backward branch firing for
    8 consecutive iterations — becomes a candidate and is then vetted:

    - C1 (valid loop): body fits the trace cache / accelerator capacity;
    - C2 (control check): no system instructions, no jumps, no inner loops,
      every forward branch targets inside the region, the region ends in the
      conditional backward branch to its own entry;
    - C3 (instruction mix): at least 20% compute and at most 60% memory
      instructions.

    A verdict is delivered exactly once per candidate entry address: every
    decided entry, accepted or rejected, is remembered, so a region whose
    translation later fails is never offered again. *)

type verdict =
  | Accepted of Region.t
  | Rejected of { entry : int; reason : string }

type t

val create : capacity:int -> Program.t -> t
(** A detector whose C1 bound is [capacity] instructions (the trace-cache
    size). *)

val feed : t -> pc:int -> off:int -> verdict option
(** Present one retired taken conditional branch at [pc] whose offset [off]
    is negative: the end of an iteration of the loop [pc + off .. pc]. A
    verdict is produced only by the confirming branch. *)
