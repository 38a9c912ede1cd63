(** Trace-driven out-of-order core timing model — the stand-in for the
    paper's gem5 BOOM-like baseline (§6.1: quad-issue OoO RISC-V).

    The model is charged with each retired instruction in program order and
    computes a cycle count under the classic analytic OoO approximation: an
    instruction issues as soon as (a) it has been fetched, (b) its source
    operands are ready, (c) a functional unit of its class is free, and (d)
    ROB space exists; it commits in order at a bounded width. Branch
    mispredictions (from a bimodal predictor) stall fetch; loads take their
    measured cache-hierarchy latency and compete for memory ports.

    A model is built for one program: {!create} decodes every code slot
    once into a table of the facts the timing equations read (unit pool,
    latency and occupancy under the model's config, source and destination
    readiness slots, load/store/branch kind), so charging an instruction
    ({!retire}) takes only integers and allocates nothing. {!Cpu_run.step}
    is the one caller on the simulator's paths.

    This family of models tracks real OoO cores closely for loop-dominated
    codes, which is all the evaluation requires: the paper's results are
    relative speedups over the same dynamic instruction stream. *)

type config = {
  width : int;               (** fetch/issue/commit width *)
  rob_size : int;
  mispredict_penalty : int;  (** frontend refill cycles *)
  alu_units : int;
  mul_units : int;
  div_units : int;
  fp_units : int;            (** shared FP add/mul/div pool *)
  mem_ports : int;           (** cache ports = LSU issue slots per cycle *)
  latencies : Latency.table;
}

val default_config : config
(** Quad-issue, 192-entry ROB, 12-cycle mispredict penalty, 4 ALUs, 2
    multipliers, 1 divider, 2 FP units, 2 memory ports — a BOOM-class
    configuration. *)

type t

val create : config -> Hierarchy.t -> Program.t -> t
(** A model of one core running [prog], with its caches in [hier]: decodes
    [prog]'s code slots under [config]. *)

val retire : t -> int -> pc:int -> mem_addr:int -> taken:bool -> unit
(** [retire t slot ~pc ~mem_addr ~taken] charges one retired instruction:
    the one in code slot [slot] of the model's program ({!Program.code}),
    fetched at [pc]. [mem_addr] is a load's or store's effective address
    and [taken] a conditional branch's direction; each is ignored by every
    other instruction. Call in program order. An [ecall] or [ebreak] is
    never retired: it halts the core. Raises [Invalid_argument] when
    [slot] is outside the program. *)

val cycles : t -> int
(** Commit cycle of the last instruction retired so far: [(summary
    t).cycles] without building the summary. *)

type summary = {
  cycles : int;           (** commit cycle of the last instruction *)
  instructions : int;
  mispredicts : int;
  loads : int;
  stores : int;
  int_ops : int;
  fp_ops : int;
  branches : int;
  load_latency_sum : int; (** for AMAT reporting *)
  rob_stalls : int;       (** instructions whose issue waited on ROB space *)
  fetch_refills : int;    (** frontend restarts after a mispredict *)
}

val summary : t -> summary

val ipc : summary -> float
(** Instructions per cycle; 0 for an empty run. *)

val register_stats : t -> Stats.group -> unit
(** Expose the live model's counters (cycles, instructions, per-class op
    counts, stalls, IPC, AMAT) as probes under [grp]. Snapshot-time reads
    only — the timing hot path is untouched. *)

val register_summary_stats : summary -> Stats.group -> unit
(** Same stat names over a frozen {!summary}, for runs that only keep the
    summary around (baseline measurements). *)
