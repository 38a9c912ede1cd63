(** Small statistics helpers shared by the timing models and the experiment
    harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean; the paper reports cross-benchmark averages of speedup
    ratios, for which the geometric mean is the appropriate aggregate.
    0 on the empty list; all inputs must be positive. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,1\]], nearest-rank on the sorted
    list. Raises [Invalid_argument] on the empty list. *)

val div_ceil : int -> int -> int
(** [div_ceil a b] is ceil(a / b) for positive [b]. *)

(** Online accumulator for mean over a stream of samples, used by the
    per-instruction latency counters (the hardware tallies sum and count). *)
module Running : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int

  val mean : t -> float
  (** 0 before any sample has been added. *)

  val mean_or : t -> float -> float
  (** [mean_or t default] is the mean, or [default] before any sample. *)
end

(** {1 Hierarchical performance-counter registry}

    The uniform observability layer behind the measure-then-remap loop
    (paper §5): every timing model registers its counters under a named
    group, and the whole tree can be snapshotted, dumped to JSON, gated
    against another snapshot, and checked for invariants. Hot-loop
    increments are a single mutable-field store. *)

type value = VInt of int | VFloat of float

type registry
type group
type counter
type histogram

val registry : unit -> registry

val group : registry -> string -> group
(** Top-level group. Raises [Invalid_argument] on a duplicate or invalid
    name (names are [[A-Za-z0-9_-]+]; dots separate hierarchy levels in
    paths only). *)

val subgroup : group -> string -> group

val counter : group -> string -> counter
(** Monotone integer counter. Raises [Invalid_argument] on duplicates. *)

val incr : counter -> unit
val add : counter -> int -> unit

val get : counter -> int

val histogram : group -> string -> histogram
(** Sample accumulator tallying count/sum/min/max — the same quartet the
    paper's hardware counters expose per operation. *)

val observe : histogram -> float -> unit

val observe_n : histogram -> float -> int -> unit
(** [observe_n h x k] charges [k >= 0] samples of [x] at once. It leaves
    [h] exactly as [k] calls of [observe h x] would when every sample [h]
    ever takes is an integer-valued float and every sum stays below 2^53:
    such sums are exact, so their order cannot change a bit. *)

val derived : group -> string -> (unit -> float) -> unit
(** Float probe (ratios such as IPC or hit rates). *)

val int_probe : group -> string -> (unit -> int) -> unit

(** {2 Snapshots} *)

type hist = { hcount : int; hsum : float; hmin : float; hmax : float }

val hist_mean : hist -> float

type entry = Value of value | Hist of hist

type snapshot
(** Immutable dump of the registry: dotted paths in registration order. *)

val snapshot : registry -> snapshot
val to_assoc : snapshot -> (string * entry) list
val find : snapshot -> string -> value option
val find_int : snapshot -> string -> int option
val find_hist : snapshot -> string -> hist option

val hists_under : snapshot -> string -> (string * hist) list
(** All histograms whose path starts with [prefix ^ "."], keyed by the
    remainder of the path — how the optimizer enumerates per-node and
    per-edge measurements. *)

val to_json : snapshot -> Json.t
(** Nested objects mirroring the group hierarchy; histograms become
    [{count, sum, min, max}] objects. *)

val of_json : Json.t -> (snapshot, string) result
(** Inverse of {!to_json} (up to probe/counter distinction — every scalar
    parses as a plain value). *)

(** {2 Diff and invariants} *)

type delta = { path : string; before : float; after : float }

(** A regression gate over the changed paths of two snapshots: the verdict
    `mesa_cli stats-diff` prints. A histogram contributes its sample sum
    under its own path and its count under [path ^ ".count"]. *)
type gate = {
  deltas : delta list;      (** every changed path *)
  prefixes : string list;   (** the gated path prefixes *)
  max_regress : float;      (** percent *)
  violations : delta list;  (** gated deltas past the limit *)
}

val gate :
  ?prefixes:string list -> max_regress:float -> snapshot -> snapshot -> gate
(** A delta is gated when its path starts with one of [prefixes] (empty or
    absent: [controller.total_cycles], [accel_cycles], [overhead_cycles]
    and [cpu.cycles]); it violates the gate when [after] exceeds
    [before * (1 + max_regress / 100) + 1e-9]. *)

val render_gate : gate -> string
(** One line per changed path (gated ones starred), then either the
    [stats-diff: OK] verdict or one [REGRESSED] line per violation. *)

val check_invariants : snapshot -> (unit, string list) result
(** No negative counters, no NaN probes, histogram min <= max. Exposed for
    tests: the property suites assert it on every snapshot. *)
