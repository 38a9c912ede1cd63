(** The 16-core OoO CPU baseline of §6 (gem5 multicore in the paper).

    A kernel whose hot loop is OpenMP-parallel is split into per-thread
    index slices, each simulated on its own core model with a private L1
    over the shared L2 (extra latency per sharer models contention). The
    region's wall clock is the slowest slice plus the OpenMP fork/join
    overhead — the real-world cost that MESA's sub-microsecond
    configuration undercuts. Non-parallel kernels run on one core. *)

type result = {
  cycles : int;
  threads : int;
  summaries : Ooo_model.summary list; (** one per active core *)
}

val default_fork_join_cycles : int
(** ~3 us at 2 GHz for a 16-thread parallel region. Exposed for tests. *)

val run : ?cores:int -> Kernel.t -> Main_memory.t -> result
(** Execute the kernel (memory must already contain its inputs) on [cores]
    OoO cores of the default configuration (16 by default; [cores] is
    exposed for tests), paying {!default_fork_join_cycles} per parallel
    region. Slices are simulated
    sequentially, which is functionally equivalent for the independent
    iterations the annotation guarantees.

    When [n < cores], the surplus slices are empty and spawn no thread:
    [threads] counts only populated slices, [summaries] has one entry per
    populated slice, and the shared-L2 contention penalty scales with the
    populated count — so the cycle count equals a run with exactly that
    many cores. *)
