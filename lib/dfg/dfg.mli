(** The dataflow-graph architecture model (§3.1).

    A [Dfg.t] represents one loop body as a directed acyclic graph:
    instructions are nodes, data dependencies are edges. Node weights
    (operation latencies) and edge weights (transfer latencies) live in a
    separate {!Perf_model.t} so the same structural graph can be re-weighted
    as measurements arrive — that separation is what lets MESA keep a
    "real-time performance model" and re-optimize.

    Indexing is program order, which is also a topological order: every data
    source of node [i] is either a live-in or a node with a smaller index
    (the LDFG's defining property). The structure also carries the
    loop-level facts the backend needs: guards for predicated forward
    branches, memory-ordering links, live-in/live-out register sets, and the
    backward branch that decides whether another iteration runs. *)

(** Which register file a value lives in. *)
type file = X | F

(** Where a node's input value comes from. *)
type src =
  | Node of int            (** output of an earlier node *)
  | Reg_in of Reg.t * file (** register-file value at iteration start *)

type node = {
  instr : Isa.t;
  addr : int;                  (** instruction address in the region *)
  srcs : src array;            (** register inputs in operand order *)
  guards : (int * bool) list;
      (** [(b, disable_when)] — node is disabled when branch node [b]'s
          taken-outcome equals [disable_when] *)
  hidden : src option;
      (** previous producer of this node's destination; a disabled node
          forwards this value instead (§5.2, forward branches) *)
  prev_store : int option;     (** last preceding store, for memory ordering *)
}

type t = {
  nodes : node array;
  live_in_x : Reg.t list;      (** integer registers read before written *)
  live_in_f : Reg.t list;
  live_out_x : (Reg.t * src) list; (** final producer of each written int reg *)
  live_out_f : (Reg.t * src) list;
  back_branch : int;           (** node index of the loop's backward branch *)
  entry_addr : int;
  exit_addr : int;             (** PC when the loop finally falls through *)
}

(** Edge classification, used for weighting and for drawing. *)
type edge_kind =
  | Data of int   (** operand position *)
  | Hidden        (** old-value forwarding into a predicated node *)
  | Guard         (** enable signal from a branch node *)
  | Mem_order     (** store-to-memory-op program-order link *)

val node_count : t -> int

val edges : t -> (int * int * edge_kind) list
(** All (producer, consumer, kind) pairs; producers always have the smaller
    index. *)

val arrival_deps : t -> int array array
(** For each node, the producers its arrival time waits on, in the timing
    fold's order: operand sources, hidden value, guards, then (stores only)
    the store-order link. The one dependency order the engine and the cost
    model share. *)

val validate : t -> (unit, string) result
(** Check structural invariants: sources strictly backward, guards refer to
    branch nodes, [back_branch] is a conditional branch, memory links are
    monotone. The property tests run this on every generated graph. *)

val loop_carried : t -> (Reg.t * file * src) list
(** Registers that are both live-in and written in the body: the
    iteration-to-iteration dependencies that bound pipelining. *)

val completion_times :
  t -> op_latency:(int -> float) -> transfer:(int -> int -> float) -> float array
(** Equation 2: [L_i = L_i.op + max over sources (L_s + L_(s,i))], live-ins
    arriving at cycle 0. Guard and memory-order edges participate with their
    transfer latency, since an operation cannot act before its enable
    arrives or its ordering predecessor resolves. *)

val iteration_latency :
  t -> op_latency:(int -> float) -> transfer:(int -> int -> float) -> float
(** [max_i L_i] — the latency of one loop iteration (§3.1). *)

val critical_path :
  t -> op_latency:(int -> float) -> transfer:(int -> int -> float) -> int list
(** The node chain realizing {!iteration_latency}, in execution order. *)

val pp : Format.formatter -> t -> unit
val to_dot : t -> string
(** Graphviz rendering with nodes labelled by disassembly. *)
