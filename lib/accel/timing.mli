(** The timing plane: one definition of the accelerator's timing equations,
    shared by the event engine ({!Engine}, which adds values, memory,
    guards, faults and observation on top) and the analytical cost model
    ({!Cost_model}, which drives it from latency oracles).

    A loop is compiled once into a static schedule ({!t}); an execution
    then owns a mutable {!state}: the contention tables, the per-instance
    initiation clocks, the per-node completion and arrival vectors, and
    the claims of the node firing in progress. Each iteration is one
    {!step}: per node it runs {!fold} (Equation 2 over the compiled
    in-edges, with router-slice claims), then the caller's [fire], which
    prices the operation ({!mem_latency} for memory nodes, its own oracle
    otherwise) into [firing], then the iterative-unit bound and
    [completes]; it ends with {!initiate} (the II rule). *)

(** Activity class of a node's enabled firing. *)
type kind = Int_op | Fp_op | Mem_op | Branch_op | Not_fabric

type t = {
  n : int;
  cls_lat : float array;       (** static {!Latency.accel} latency *)
  long_op : bool array;        (** iterative divide/sqrt unit *)
  is_load : bool array;
  kind : kind array;
  deps : int array array;      (** {!Dfg.arrival_deps}, fold order *)
  base : float array array;    (** static transfer latency per in-edge *)
  slice : int array array;     (** router slice per in-edge, -1 when PE-local *)
  has_noc : bool array;        (** some in-edge crosses the NoC *)
  carried : int array;         (** producers of loop-carried registers *)
  forwarded : bool array;      (** store-to-load forwarded loads *)
  vector_member : bool array;  (** non-leader members of a vector group *)
  prefetched : bool array;
  tiling : int;
  nslices : int;
  pipelined : bool;
  placement : Placement.t;
}

val compile : config:Accel_config.t -> dfg:Dfg.t -> t
(** The static schedule of [dfg] under [config]. *)

val schedule_key : dfg:Dfg.t -> Placement.t -> string
(** What a placement contributes to {!compile}: per {!Dfg.arrival_deps}
    edge, in fold order, its static transfer latency and the router table
    it books, with router slices renumbered in order of first use. Router
    tables are per (instance, slice) and never interact, so two placements
    of [dfg] on one grid with equal keys give equal schedules, and every
    run over them (with the other [config] fields fixed) times equally:
    the same {!Cost_model.estimate}. The key is an opaque byte string,
    compared with [String.equal]; [schedule_key ~dfg] reads the edges of
    [dfg] once and can be applied to many placements. *)

val count : Activity.t -> kind -> int -> unit
(** [count act kind k] adds [k] firings of [kind] to the matching
    per-class counter of [act]. *)

(** The bounds of one iteration's II. An all-float record, so updating it
    allocates nothing. *)
type bounds = {
  mutable latency : float;  (** completion of the iteration's last node *)
  mutable rec_ : float;     (** recurrence bound; the II itself unpipelined *)
  mutable mem : float;      (** port-throughput bound; 0 unpipelined *)
  mutable fu : float;       (** iterative-unit bound; 0 unpipelined *)
  mutable ii : float;
  mutable makespan : float;
      (** latest absolute completion of any iteration initiated so far *)
}

(** The node firing in progress. An all-float record, so updating it
    allocates nothing. *)
type firing = {
  mutable oplat : float;      (** operation latency, set by the caller *)
  mutable port_wait : float;  (** its port-queue share: set by
                                  {!mem_latency} on a claim, else 0 *)
}

type state = {
  ports : Contention.t;
  port_cap : int;
  noc : Contention.t option array;
      (** (instance, slice) router tables, index [inst * nslices + slice],
          created on first claim *)
  acquire : int -> Contention.t;
  next : float array;         (** per-instance next initiation time *)
  mutable floor : int;
      (** a cycle at or below every instance's next initiation, so below
          every claim of this or any later iteration: the tables may forget
          the cycles behind it. {!step} sets it to [⌊min next⌋] once per
          [tiling] steps; the clocks only grow, so it stays a lower bound
          in between. *)
  mutable floor_due : int;    (** steps until {!step} rescans [floor] *)
  completes : float array;    (** per-node completion, relative to its
                                  iteration's start *)
  arrival : float array;      (** per-node Equation-2 arrival *)
  uncontended : float array;  (** the arrival had every router been free *)
  argmax : int array;         (** producer realizing [arrival], -1 if none *)
  lat : float array;          (** per in-edge latency of the last {!fold} *)
  mutable accesses : int;     (** memory accesses this iteration *)
  mutable nclaims : int;      (** claims of the node firing in progress *)
  claim_wait : float array;   (** issue minus ready: the queueing delay *)
  firing : firing;
  last : bounds;              (** the last {!initiate}d iteration *)
}

val start : ?acquire:(int -> Contention.t) -> t -> ports:int -> state
(** Fresh timing state with [ports] cache ports (at least one). [acquire]
    supplies each contention table from its capacity (default: a new
    table); the engine and the cost model pass {!Contention.acquire}, and
    the default is exposed for tests. *)

val fold : t -> state -> inst:int -> int -> unit
(** [fold t st ~inst j] folds node [j]'s compiled in-edges (Equation 2) at
    instance [inst]: each NoC edge claims its router slice at the
    producer's absolute completion. Sets [arrival], [uncontended] and
    [argmax] of [j], [lat] per edge, and restarts the claim log with the
    NoC claims in edge order. Exposed for tests, which drive the plane one
    stage at a time; {!step} is the only other caller. *)

val alias : t -> state -> inst:int -> int -> int -> float
(** [alias t st ~inst i j] folds one more, uncompiled edge [i -> j] into
    [j]'s arrival (a load waiting on a same-word store found at run time),
    appending its router claim, if any, to the log. Returns its latency. *)

val mem_latency :
  t -> state -> inst:int -> service:(int -> float) -> int -> float
(** The memory-issue rule for node [j] at its arrival, counted as one of
    the iteration's accesses: a forwarded load costs 2, a vector-group
    member 1; any other access claims a cache port (appended to the log,
    its queueing delay also in [firing.port_wait]) and costs the queueing
    delay plus [service j]. *)

val initiate : t -> state -> inst:int -> fu:float -> unit
(** The II rule, once per iteration after every node completed: fills
    [last] (raising its [makespan] to the iteration's end), advances
    instance [inst]'s clock by the II and restarts the access count.
    Pipelined, the II is the largest of the loop-carried
    recurrence, the iteration's memory accesses over the port count, and
    [fu] (the slowest iterative-unit firing); otherwise it is the iteration
    latency plus one. Exposed for tests, like {!fold}. *)

val step : t -> state -> inst:int -> fire:(inst:int -> int -> unit) -> unit
(** One iteration of instance [inst]: it rescans [floor] when due, then
    for each node [j] in order it runs {!fold} on it, calls [fire ~inst j]
    (which must set [firing.oplat]; [port_wait] starts at 0), bounds the
    II by [oplat] if [j] is an iterative unit and sets [completes.(j)] to
    its arrival plus [oplat]; then {!initiate}. Beyond what [fire]
    allocates, a step allocates only each router table on its first
    claim: nothing per node firing and nothing per iteration. *)

val router_use : t -> state -> (int * int * int) list
(** [(slice, claims, busy cycles)] of every router table created, in
    (instance, slice) order; tiled instances report their physical slice. *)

val port_use : state -> int * int
(** [(claims, busy cycles)] of the cache ports. *)
